"""Output digests of the pinned toy configs, for byte-identity checks.

Usage: python3 tools/pinned_digests.py SRC_DIR
       python3 tools/pinned_digests.py PARENT_SRC CHANGE_SRC

Imports `mixvae` from SRC_DIR (the `src/` directory of a checkout), runs
each pinned config with its output directory under a temporary
directory, and prints the first 16 hex digits of the sha256 of
`metrics.csv`, `checkpoint.ckpt`, `per_class.csv` and every snapshot
file. The read side follows, each output made through `mixvae.cli.main`:
for config (a) the `eval --csv` file, the `export-latents` CSV, the
`export-samples` PGM and matrix in `--checkpoint` and `--snapshots-dir`
modes, and the `knn-sweep` CSV with default settings and in mean mode
with a 300-point test subsample; for config (d), which is supervised,
the `eval` stdout. A last line digests the `elbo` fields and `generate`
samples of a seeded tiny net whose decoder output biases are +-40, so
every Bernoulli mean sits on the BERNOULLI_EPS clamp and the line
changes with the clamp's value. After it, one line per float32 config
(`arch.compute_dtype`) digests all the training outputs of its short run
together: (e) is an MGR run, and (f) an SMGR run with fixed-period
snapshots, so it covers the constrained replay loss and the `elbo` of an
evaluation step that falls on a replay batch. A tree without that key
prints no such lines. With two `src/` directories it lists
each in its own process and prints only the outputs whose digests differ
(or that only one side wrote), as `tag preset name PARENT -> CHANGE`,
and exits 1 if there are any: the byte-identity gate of a refactor. BLAS is pinned to
one thread so that summation order does not depend on the machine's core
count.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
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
# Trained in float32: one digest over every output file of each run.
FLOAT32 = {
    "e": ("toy-blobs-mgr-dyn", ["stream.total_steps=1200", "eval.cadence=400",
                                "arch.compute_dtype=float32"]),
    "f": ("toy-blobs-mgr-dyn", ["stream.total_steps=1200", "eval.cadence=400",
                                "replay.mode=smgr", "replay.snapshot=fixed",
                                "replay.snapshot_period=300", "arch.compute_dtype=float32"]),
}


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def read_side(tag: str, preset: str, overrides: list[str], out: str) -> dict[str, str]:
    """{output name: digest} of the read commands on one trained run."""
    from mixvae.cli import main as cli

    cfg_args = ["--preset", preset, "--out", out]
    for item in overrides:
        cfg_args += ["--set", item]
    ckpt = os.path.join(out, "checkpoint.ckpt")
    path = lambda name: os.path.join(out, "read-" + name)  # noqa: E731

    def run(*argv: str) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli(list(argv))
        if code != 0:
            raise SystemExit(f"{tag}: mixvae {argv[0]} exited {code}")
        return buf.getvalue()

    if tag == "d":
        with open(path("eval.stdout"), "w") as fh:
            fh.write(run("eval", *cfg_args, "--checkpoint", ckpt))
        return {"eval.stdout": digest(path("eval.stdout"))}
    if tag != "a":
        return {}
    run("eval", *cfg_args, "--checkpoint", ckpt, "--csv", path("eval.csv"))
    run("export-latents", *cfg_args, "--checkpoint", ckpt, "--out-file", path("latents.csv"))
    run("export-samples", "--checkpoint", ckpt, "--out-file", path("samples.pgm"),
        "--matrix-file", path("samples.mvmx"))
    run("export-samples", "--snapshots-dir", out, "--n", "8",
        "--out-file", path("snapshots.pgm"), "--matrix-file", path("snapshots.mvmx"))
    run("knn-sweep", *cfg_args, "--csv", path("knn-sweep.csv"))
    run("knn-sweep", *cfg_args, "--set", "eval.latent_mode=mean",
        "--set", "eval.knn_test_subsample=300", "--csv", path("knn-sweep-mean300.csv"))
    names = ["eval.csv", "latents.csv", "samples.pgm", "samples.mvmx", "snapshots.pgm",
             "snapshots.mvmx", "knn-sweep.csv", "knn-sweep-mean300.csv"]
    return {name: digest(path(name)) for name in names}


def clamp_digest() -> str:
    """Digest of a tiny net's `elbo` and `generate` outputs on the Bernoulli clamp."""
    import numpy as np
    from mixvae.model import Architecture, elbo, generate, init_params
    from mixvae.rng import RngState

    arch = Architecture(input_dim=6, encoder=(5,), n_z=2, decoder=(4,), k_max=3)
    params = init_params(arch, RngState(0, (1,)), k_init=3)
    params[params.layers["dec"][-1][1]] = [40.0, -40.0] * 3
    x = RngState(0, (2,)).uniform(0.0, 1.0, (5, 6))
    bd = elbo(x, params, RngState(0, (3,)))
    samples, labels = generate(params, np.full(3, 1 / 3), 5, RngState(0, (4,)))
    h = hashlib.sha256()
    for a in (bd.task_posterior, bd.recon_per_component, bd.gauss_kl_per_component,
              bd.cat_kl, bd.total, samples, labels):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def float32_digest(preset: str, overrides: list[str]) -> str | None:
    """Digest of a float32 config's training outputs; None when the tree
    has no `arch.compute_dtype` key."""
    from mixvae.config import apply_overrides, load_preset
    from mixvae.errors import ConfigError
    from mixvae.train import run_train

    with tempfile.TemporaryDirectory() as out:
        try:
            cfg = apply_overrides(load_preset(preset), overrides + [f"out_dir={out}"])
        except ConfigError:
            return None
        run_train(cfg)
        h = hashlib.sha256()
        for name in ["metrics.csv", "checkpoint.ckpt", "per_class.csv"] + sorted(
                n for n in os.listdir(out) if n.startswith("snapshot-")):
            with open(os.path.join(out, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def compare(parent_src: str, change_src: str) -> int:
    """Print the digest lines that differ between two `src/` directories."""
    parent, change = (
        dict(line.rsplit(" ", 1) for line in subprocess.run(
            [sys.executable, os.path.abspath(__file__), src], check=True,
            stdout=subprocess.PIPE, text=True).stdout.splitlines())
        for src in (parent_src, change_src))
    differ = [f"{name} {parent.get(name, '-')} -> {change.get(name, '-')}"
              for name in {**parent, **change} if parent.get(name) != change.get(name)]
    for line in differ:
        print(line)
    print(f"{len(differ)} of {len({**parent, **change})} digests differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        return compare(*argv)
    if len(argv) != 1:
        print("usage: python3 tools/pinned_digests.py SRC_DIR | PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
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
            for name, value in read_side(tag, preset, overrides, out).items():
                print(f"{tag} {preset} {name} {value}")
    print(f"clamp tiny-net elbo+generate {clamp_digest()}")
    for tag, (preset, overrides) in FLOAT32.items():
        if value := float32_digest(preset, overrides):
            print(f"{tag} {preset} float32-run {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
