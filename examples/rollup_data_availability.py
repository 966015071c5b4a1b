#!/usr/bin/env python3
"""A layer-2 rollup's life-cycle through the data availability layer.

This is the workload the paper's introduction motivates: an optimistic
rollup posts compressed transaction batches as blob data; layer-1
nodes must verify the data is *available* (so anyone can recompute the
state and raise fraud proofs) without any single node downloading all
of it.

The example exercises the real byte-level pipeline:

1. pack rollup batches into a blob;
2. erasure-extend the blob 2D (each line recovers from any half);
3. scatter cells to simulated custodians, with a fraction lost;
4. a rollup full node retrieves its batch from the network's cells,
   reconstructing around the losses;
5. a withholding attack on the same blob is *detected* by sampling.

Per-cell proof verification is not computed here: the simulator models
it only as a per-cell delay (``PandasParams.cell_verify_seconds``).

Run:  python examples/rollup_data_availability.py
"""

import json
import random

from repro.das import false_positive_probability, required_samples
from repro.erasure.blob import Blob, BlobReconstructionError, ExtendedBlob


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

    # -- 3. scatter cells; the network loses 30% of them --------------
    surviving = {}
    for cid in range(extended.ext_rows * extended.ext_cols):
        if rng.random() > 0.30:
            surviving[cid] = extended.cell_by_id(cid)
    print(
        f"network holds {len(surviving)} of "
        f"{extended.ext_rows * extended.ext_cols} cells after losses"
    )

    # -- 4. a rollup participant reconstructs the batch data ----------
    rebuilt = ExtendedBlob.reconstruct(surviving, base_rows, base_cols, cell_bytes)
    recovered = rebuilt.to_blob().to_bytes()[: len(payload)]
    assert recovered == payload
    batches = json.loads(recovered)
    print(f"rollup node recovered all {len(batches)} batches despite 30% cell loss")
    print(
        f"  (can now verify state root {batches[0]['state_root'][:16]}... "
        "or raise a fraud proof)"
    )

    # -- 5. a withholding builder is caught by sampling ---------------
    print()
    print("withholding attack: builder releases all but a 17x17 sub-matrix")
    withheld = {
        cid: cell
        for cid, cell in (
            (r * extended.ext_cols + c, extended.cell(r, c))
            for r in range(extended.ext_rows)
            for c in range(extended.ext_cols)
        )
        if not (cid // extended.ext_cols <= base_rows and cid % extended.ext_cols <= base_cols)
    }
    try:
        ExtendedBlob.reconstruct(withheld, base_rows, base_cols, cell_bytes)
        raise AssertionError("withheld blob should not reconstruct")
    except BlobReconstructionError:
        print("  reconstruction impossible, exactly as Figure 3-right predicts")

    samples = required_samples(extended.ext_rows, extended.ext_cols, target=1e-9)
    fp = false_positive_probability(samples, extended.ext_rows, extended.ext_cols)
    print(f"  {samples} random samples bound the miss probability at {fp:.2e}:")
    print("  committee members sampling this blob vote it unavailable and the")
    print("  block is rejected under the tight fork-choice rule.")


if __name__ == "__main__":
    main()
