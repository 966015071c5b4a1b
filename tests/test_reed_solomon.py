"""Reed-Solomon erasure codec tests, incl. the any-half property."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.reed_solomon import ReedSolomon


def test_encode_is_systematic():
    rs = ReedSolomon(4, 8)
    data = [10, 20, 30, 40]
    codeword = rs.encode(data)
    assert codeword[:4] == data
    assert len(codeword) == 8


def test_decode_from_data_half():
    rs = ReedSolomon(4, 8)
    codeword = rs.encode([1, 2, 3, 4])
    known = {i: codeword[i] for i in range(4)}
    assert rs.decode(known) == codeword


def test_decode_from_parity_half():
    rs = ReedSolomon(4, 8)
    codeword = rs.encode([9, 8, 7, 6])
    known = {i: codeword[i] for i in range(4, 8)}
    assert rs.decode(known) == codeword


def test_decode_from_mixed_positions():
    rs = ReedSolomon(4, 8)
    codeword = rs.encode([5, 0, 255, 17])
    known = {i: codeword[i] for i in (0, 3, 5, 6)}
    assert rs.decode(known) == codeword


def test_decode_below_threshold_raises():
    rs = ReedSolomon(4, 8)
    codeword = rs.encode([1, 2, 3, 4])
    with pytest.raises(ValueError):
        rs.decode({0: codeword[0], 1: codeword[1], 2: codeword[2]})


def test_wrong_data_length_raises():
    rs = ReedSolomon(4, 8)
    with pytest.raises(ValueError):
        rs.encode([1, 2, 3])


def test_position_out_of_range_raises():
    rs = ReedSolomon(2, 4)
    with pytest.raises(ValueError):
        rs.decode({0: 1, 9: 2})


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        ReedSolomon(0, 4)
    with pytest.raises(ValueError):
        ReedSolomon(4, 4)
    with pytest.raises(ValueError, match="exceeds 255, the GF"):
        ReedSolomon(200, 300)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_recovers_from_any_half(data):
    """The property DAS relies on: ANY k of n=2k symbols suffice."""
    k = data.draw(st.integers(min_value=2, max_value=16))
    symbols = data.draw(
        st.lists(st.integers(0, 255), min_size=k, max_size=k)
    )
    rs = ReedSolomon(k, 2 * k)
    codeword = rs.encode(symbols)
    positions = data.draw(st.permutations(range(2 * k)))
    known = {p: codeword[p] for p in positions[:k]}
    assert rs.decode(known) == codeword


def test_extra_symbols_are_consistent():
    rs = ReedSolomon(4, 8)
    codeword = rs.encode([11, 22, 33, 44])
    known = {i: codeword[i] for i in range(6)}  # more than k
    assert rs.decode(known) == codeword


def test_distinct_data_distinct_parity():
    rs = ReedSolomon(4, 8)
    a = rs.encode([1, 2, 3, 4])
    b = rs.encode([1, 2, 3, 5])
    assert a[4:] != b[4:]


def test_deterministic():
    rs = ReedSolomon(6, 12)
    data = [random.Random(3).randrange(256) for _ in range(6)]
    assert rs.encode(data) == rs.encode(data)
