"""Wire-size accounting for PANDAS messages."""

from __future__ import annotations

from repro.core.messages import (
    BOOST_ENTRY_BYTES,
    CELL_ID_BYTES,
    CellRequest,
    CellResponse,
    SeedMessage,
)
from repro.core.seeding import SeedParcel, boost_map_for_line
from repro.params import MESSAGE_OVERHEAD_BYTES, PandasParams


def test_seed_message_size():
    params = PandasParams.full()
    msg = SeedMessage(
        slot=0,
        epoch=0,
        line=3,
        cells=(1, 2, 3),
        # two lines' maps, three (line, custodian) entries in all
        boost=(
            boost_map_for_line([SeedParcel(7, 3, (4, 5)), SeedParcel(8, 3, (6,))]),
            boost_map_for_line([SeedParcel(7, 9, (20,))]),
        ),
    )
    expected = MESSAGE_OVERHEAD_BYTES + 3 * params.cell_bytes + 3 * BOOST_ENTRY_BYTES
    assert msg.wire_size(params) == expected


def test_seed_message_empty_parcel_costs_overhead_and_boost():
    params = PandasParams.full()
    boost = (boost_map_for_line([SeedParcel(7, 1, (1,))]),)
    msg = SeedMessage(slot=0, epoch=0, line=1, cells=(), boost=boost)
    assert msg.wire_size(params) == MESSAGE_OVERHEAD_BYTES + BOOST_ENTRY_BYTES


def test_request_size_scales_with_cell_ids():
    params = PandasParams.full()
    msg = CellRequest(slot=0, epoch=0, cells=frozenset(range(10)))
    assert msg.wire_size(params) == MESSAGE_OVERHEAD_BYTES + 10 * CELL_ID_BYTES


def test_response_size_carries_full_cells():
    params = PandasParams.full()
    msg = CellResponse(slot=0, epoch=0, cells=tuple(range(5)))
    assert msg.wire_size(params) == MESSAGE_OVERHEAD_BYTES + 5 * 560


def test_sample_response_is_about_40kb_for_73_cells():
    """The per-node sampling volume of Section 3 (73 x 560 B)."""
    params = PandasParams.full()
    msg = CellResponse(slot=0, epoch=0, cells=tuple(range(73)))
    payload = msg.wire_size(params) - MESSAGE_OVERHEAD_BYTES
    assert payload == 73 * 560  # ~40 KB


def test_messages_carry_slot_for_accounting():
    for msg in (
        SeedMessage(slot=9, epoch=0, line=0, cells=(1,)),
        CellRequest(slot=9, epoch=0, cells=frozenset({1})),
        CellResponse(slot=9, epoch=0, cells=(1,)),
    ):
        assert msg.slot == 9
