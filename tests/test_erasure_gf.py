"""Field-axiom tests for GF(2^8), incl. property-based."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.gf import GF256

ELEMS8 = st.integers(min_value=0, max_value=255)
NONZERO8 = st.integers(min_value=1, max_value=255)


def test_fields_are_cached():
    assert GF256() is GF256()


@given(a=ELEMS8, b=ELEMS8)
def test_gf256_mul_commutative(a, b):
    gf = GF256()
    assert gf.mul(a, b) == gf.mul(b, a)


@given(a=ELEMS8, b=ELEMS8, c=ELEMS8)
@settings(max_examples=60)
def test_gf256_mul_associative(a, b, c):
    gf = GF256()
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))


@given(a=ELEMS8, b=ELEMS8, c=ELEMS8)
@settings(max_examples=60)
def test_gf256_distributive(a, b, c):
    gf = GF256()
    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)


@given(a=NONZERO8)
def test_gf256_inverse(a):
    gf = GF256()
    assert gf.mul(a, gf.div(1, a)) == 1


@given(a=ELEMS8, b=NONZERO8)
def test_gf256_div_inverts_mul(a, b):
    gf = GF256()
    assert gf.div(gf.mul(a, b), b) == a


def test_one_is_multiplicative_identity():
    gf = GF256()
    for a in (0, 1, 2, 77, 255):
        assert gf.mul(a, 1) == a


def test_zero_annihilates():
    gf = GF256()
    for a in (0, 1, 128, 255):
        assert gf.mul(a, 0) == 0


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256().div(5, 0)
