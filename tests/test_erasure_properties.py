"""Property-based tests for the byte-level erasure pipeline.

Figure 3's recovery and withholding extremes are checked against the
custody oracle in ``test_erasure_oracle.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.blob import Blob


@st.composite
def small_blob(draw):
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 4))
    cell_bytes = draw(st.sampled_from([2, 4]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 256, size=(rows, cols, cell_bytes), dtype=np.uint8)
    return Blob(cells)


@given(blob=small_blob())
@settings(max_examples=15, deadline=None)
def test_extension_roundtrip_property(blob):
    assert np.array_equal(blob.extend().to_blob().cells, blob.cells)
