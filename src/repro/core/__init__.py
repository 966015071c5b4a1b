"""PANDAS core protocol: assignment, seeding, consolidation, sampling."""

from repro.core.assignment import AssignmentIndex, CellAssignment, cells_of_line, lines_of_cell
from repro.core.builder import Builder
from repro.core.context import ProtocolContext
from repro.core.custody import SlotCellState
from repro.core.fetching import AdaptiveFetcher, RoundPlan, RoundStats, plan_queries, score_peers
from repro.core.messages import CellRequest, CellResponse, SeedMessage
from repro.core.node import PandasNode
from repro.core.retrieval import RetrievalClient, RetrievalResult
from repro.core.seeding import (
    LineBoost,
    MinimalSeeding,
    RedundantSeeding,
    SeedParcel,
    SeedingPolicy,
    SingleSeeding,
    WithholdingSeeding,
    policy_by_name,
)

__all__ = [
    "AssignmentIndex",
    "CellAssignment",
    "cells_of_line",
    "lines_of_cell",
    "Builder",
    "ProtocolContext",
    "SlotCellState",
    "AdaptiveFetcher",
    "RoundPlan",
    "RoundStats",
    "plan_queries",
    "score_peers",
    "CellRequest",
    "CellResponse",
    "SeedMessage",
    "PandasNode",
    "RetrievalClient",
    "RetrievalResult",
    "WithholdingSeeding",
    "LineBoost",
    "MinimalSeeding",
    "RedundantSeeding",
    "SeedParcel",
    "SeedingPolicy",
    "SingleSeeding",
    "policy_by_name",
]
