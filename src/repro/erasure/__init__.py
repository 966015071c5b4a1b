"""Erasure-coding substrate: GF(2^8), Reed-Solomon, 2D blob extension.

The byte-level codec is the oracle for custody reconstruction
(``tests/test_erasure_oracle.py``); no scenario run imports it.
"""

from repro.erasure.blob import Blob, ExtendedBlob
from repro.erasure.gf import GF256
from repro.erasure.reed_solomon import ReedSolomon

__all__ = ["Blob", "ExtendedBlob", "GF256", "ReedSolomon"]
