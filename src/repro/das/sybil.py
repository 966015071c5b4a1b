"""Sybil-attack analysis (Section 9 "Discussion").

PANDAS defeats *placement* attacks by rotating the assignment with
the epoch seed faster than ENR crawling, and *presence* attacks by
redundancy. These helpers quantify the residual risk:

- an attacker who controls a fraction ``f`` of the node identities can
  censor a cell only by being the *sole* custodian population of both
  its row and its column — otherwise honest custodians serve it;
- even then, the attacker must position those identities before the
  assignment rotates, which the short-liveness of ``S`` prevents.

All formulas treat honest nodes as assigned independently at random
(exactly how ``S`` behaves) and are validated against Monte-Carlo
sampling in the tests.
"""

from __future__ import annotations

from repro.params import SLOT_SECONDS

__all__ = [
    "line_assignment_probability",
    "line_without_honest_custodian_probability",
    "cell_censorship_probability",
    "expected_censorable_cells",
    "sampling_success_probability",
    "rotation_safety_factor",
]


def line_assignment_probability(custody_lines: int, total_lines: int) -> float:
    """P[a uniformly assigned node custodies one given line].

    With 8 rows + 8 columns over 512 + 512 lines this is ~1/64 for a
    line of each kind; we approximate rows and columns jointly by the
    aggregate ratio, which is exact when custody_rows = custody_cols
    and the grid is square.
    """
    if custody_lines <= 0 or total_lines <= 0 or custody_lines > total_lines:
        raise ValueError("invalid custody/total line counts")
    return custody_lines / total_lines


def line_without_honest_custodian_probability(
    honest_nodes: int, custody_lines: int = 16, total_lines: int = 1024
) -> float:
    """P[no honest node custodies a given line].

    This is the event an attacker needs per line to make it
    unfetchable (all its would-be servers are Sybils or absent).
    """
    if honest_nodes < 0:
        raise ValueError("honest_nodes must be non-negative")
    q = line_assignment_probability(custody_lines, total_lines)
    # each line of a node's custody is one of custody_rows draws among
    # rows (resp. columns); the per-node miss probability is (1 - q)
    # to first order, exact enough for q << 1 (validated by tests)
    return (1.0 - q) ** honest_nodes


def cell_censorship_probability(
    honest_nodes: int, custody_lines: int = 16, total_lines: int = 1024
) -> float:
    """P[a given cell has no honest custodian on either of its lines].

    The row and column custodian populations are independent draws, so
    censorship of one targeted cell requires both to be honest-free.
    """
    p_line = line_without_honest_custodian_probability(
        honest_nodes, custody_lines, total_lines
    )
    return p_line * p_line


def expected_censorable_cells(
    honest_nodes: int,
    total_cells: int = 512 * 512,
    custody_lines: int = 16,
    total_lines: int = 1024,
) -> float:
    """Expected number of cells with no honest custodian at all."""
    return total_cells * cell_censorship_probability(
        honest_nodes, custody_lines, total_lines
    )


def sampling_success_probability(
    honest_nodes: int,
    samples: int = 73,
    custody_lines: int = 16,
    total_lines: int = 1024,
) -> float:
    """P[all ``samples`` random sample cells have an honest custodian].

    The analytic cross-check for the adversarial degradation sweeps
    (``experiments.figures.run_adversarial_sweep``): it models the
    case where every Byzantine custodian serves *nothing*, which the
    node-side defenses reduce the real behaviors to (corrupt cells
    are dropped on verification, withheld cells never arrive). The
    measured honest completion rate tracks this prediction in
    expectation; any single seed deviates because honest-free lines
    arrive in lumps (one empty row censors a cell with every empty
    column). Sample cells are treated as independent uniform draws,
    validated by Monte-Carlo in the tests.
    """
    if samples < 0:
        raise ValueError("samples must be non-negative")
    p_cell = cell_censorship_probability(honest_nodes, custody_lines, total_lines)
    return (1.0 - p_cell) ** samples


def rotation_safety_factor(
    crawl_seconds: float = 60.0,
    slots_per_epoch: int = 32,
    slot_seconds: float = SLOT_SECONDS,
) -> float:
    """How many full ENR crawls fit in one assignment epoch.

    The paper's argument: S rotates every ~6.4 minutes while crawling
    the DHT for the current node set takes about a minute, so an
    attacker cannot learn who custodies a target line, spin up Sybil
    identities, *and* have them crawled into victims' views before the
    assignment changes. A factor much above 1 still leaves no slack
    because identities must also be registered and discovered — the
    factor is reported for the analysis in the docs/tests.
    """
    if crawl_seconds <= 0:
        raise ValueError("crawl_seconds must be positive")
    epoch_seconds = slots_per_epoch * slot_seconds
    return epoch_seconds / crawl_seconds
