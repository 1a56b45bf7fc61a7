"""Output digests of the four pinned toy configs, for byte-identity checks.

Usage: python3 tools/pinned_digests.py SRC_DIR

Imports `mixvae` from SRC_DIR (the `src/` directory of a checkout), runs
each pinned config with its output directory under a temporary
directory, and prints the first 16 hex digits of the sha256 of
`metrics.csv`, `checkpoint.ckpt`, `per_class.csv` and every snapshot
file. A refactor that must keep outputs byte-identical runs this on the
parent's and the change's `src/` and compares the two listings. BLAS is
pinned to one thread so that summation order does not depend on the
machine's core count.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"

PINNED = {
    "a": ("toy-blobs-mgr-dyn", ["stream.total_steps=2000", "eval.cadence=500"]),
    "b": ("toy-blobs-mgr-dyn", ["stream.total_steps=1200", "eval.cadence=400",
                                "replay.mode=smgr", "replay.snapshot=fixed",
                                "replay.snapshot_period=300", "eval.latent_mode=mean"]),
    "c": ("toy-blobs-noreplay", ["stream.total_steps=1600", "eval.cadence=800"]),
    "d": ("toy-blobs-mgr-dyn", ["mode=supervised", "stream.mode=split_task",
                                "replay.mode=smgr", "stream.total_steps=800",
                                "eval.cadence=400"]),
}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/pinned_digests.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    from mixvae.config import apply_overrides, load_preset
    from mixvae.train import run_train

    with tempfile.TemporaryDirectory() as tmp:
        for tag, (preset, overrides) in PINNED.items():
            out = os.path.join(tmp, tag)
            run_train(apply_overrides(load_preset(preset), overrides + [f"out_dir={out}"]))
            names = ["metrics.csv", "checkpoint.ckpt", "per_class.csv"]
            names += sorted(n for n in os.listdir(out) if n.startswith("snapshot-"))
            for name in names:
                print(f"{tag} {preset} {name} {digest(os.path.join(out, name))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
