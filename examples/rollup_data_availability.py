#!/usr/bin/env python3
"""A layer-2 rollup's life-cycle through the data availability layer.

This is the workload the paper's introduction motivates: an optimistic
rollup posts compressed transaction batches as blob data; layer-1
nodes must verify the data is *available* (so anyone can recompute the
state and raise fraud proofs) without any single node downloading all
of it.

The example runs the byte-level codec on one blob:

1. pack rollup batches into a blob;
2. erasure-extend the blob 2D (each line recovers from any half);
3. read the batches back from the extended blob's systematic quadrant,
   cell by cell, as custodians serve them;
4. size the random sampling that detects a withholding builder.

Reconstruction from a partial grid is what the simulator models by
cell identity (``repro.core.custody``); the codec checks it in
``tests/test_erasure_oracle.py``. Per-cell proof verification is not
computed here: the simulator models it only as a per-cell delay
(``PandasParams.cell_verify_seconds``).

Run:  python examples/rollup_data_availability.py
"""

import json
import random

from repro.das import false_positive_probability, required_samples
from repro.erasure.blob import Blob


def make_rollup_batches(count: int, rng: random.Random) -> bytes:
    """Synthetic compressed layer-2 transaction batches."""
    batches = []
    for batch_number in range(count):
        batches.append(
            {
                "batch": batch_number,
                "state_root": f"{rng.getrandbits(256):064x}",
                "tx_count": rng.randint(50, 400),
                "gas_used": rng.randint(10**6, 3 * 10**7),
            }
        )
    return json.dumps(batches).encode()


def main() -> None:
    rng = random.Random(7)

    # -- 1. the rollup sequencer posts a blob -------------------------
    payload = make_rollup_batches(24, rng)
    base_rows = base_cols = 16
    cell_bytes = 64
    blob = Blob.from_bytes(payload, base_rows, base_cols, cell_bytes)
    print(f"rollup payload: {len(payload)} B in a {base_rows}x{base_cols} blob")

    # -- 2. extension ---------------------------------------------------
    extended = blob.extend()
    print(f"extended to {extended.ext_rows}x{extended.ext_cols}")

    # -- 3. a rollup node reads its batches from served cells --------
    data_cells = [
        extended.cell(r, c) for r in range(base_rows) for c in range(base_cols)
    ]
    recovered = b"".join(data_cells)[: len(payload)]
    assert recovered == payload
    batches = json.loads(recovered)
    print(f"rollup node read all {len(batches)} batches from {len(data_cells)} data cells")
    print(
        f"  (can now verify state root {batches[0]['state_root'][:16]}... "
        "or raise a fraud proof)"
    )

    # -- 4. a withholding builder is caught by sampling ---------------
    print()
    print(
        f"withholding attack: the builder must hide a {base_rows + 1}x{base_cols + 1} "
        "sub-matrix to block reconstruction (Figure 3 right)"
    )
    samples = required_samples(extended.ext_rows, extended.ext_cols, target=1e-9)
    fp = false_positive_probability(samples, extended.ext_rows, extended.ext_cols)
    print(f"  {samples} random samples bound the miss probability at {fp:.2e}:")
    print("  committee members sampling this blob vote it unavailable and the")
    print("  block is rejected under the tight fork-choice rule.")


if __name__ == "__main__":
    main()
