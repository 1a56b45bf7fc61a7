"""One measured run of one workload, in a fresh process started by run.py.

    worker.py probe --workload W --seed N --work DIR
        Times `import mixvae` plus build_datasets and init_params for the
        workload's config, and prints the seconds.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --work DIR
        Repeats the workload's call with the same seed until S seconds are
        used, checks every call's outputs, and writes DIR/result.json. The
        first call is a warm-up: checked, but left out of the timings; at
        least MIN_CALLS timed calls follow it. With --trace 1 every other
        call from the third on
        is traced, and each per-layer metric is the median over the traced
        calls; a workload with trace_gradcheck adds one traced gradcheck
        call for the finite-difference layer.

run.py pins the BLAS thread count and PYTHONPATH in this process's
environment before it starts, and generates the input files in DIR.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS

# The tiny network run_gradcheck builds for every config.
GRADCHECK_ARCH = dict(input_dim=6, encoder=(5, 4), n_z=2, decoder=(4, 5), k_max=4)
GRADCHECK_K = 3
GRADCHECK_BATCH = 2
# The benchmark's own gate, so a change to the program's tolerance cannot loosen it.
GRADCHECK_TOLERANCE = 1e-4
# Timed calls after the warm-up call, at the least.
MIN_CALLS = 3


def probe(wl, seed: int, work: str) -> float:
    t0 = time.perf_counter()
    import mixvae  # noqa: F401  (the import is what is being timed)
    if not wl.is_gradcheck:
        from mixvae.model import Architecture, init_params
        from mixvae.rng import STREAM_INIT, substream
        from mixvae.train import build_datasets
        cfg = wl.config(seed, work, os.path.join(work, "probe"))
        train, _, _ = build_datasets(cfg)
        arch = Architecture(input_dim=train.dim, encoder=cfg.arch.encoder, n_z=cfg.arch.n_z,
                            decoder=cfg.arch.decoder, k_max=cfg.arch.k_max)
        init_params(arch, substream(cfg.seed, STREAM_INIT), cfg.arch.k_init)
    return time.perf_counter() - t0


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _expected_eval_rows(total_steps: int, cadence: int) -> int:
    return sum(1 for s in range(total_steps) if (s + 1) % cadence == 0 or s == total_steps - 1)


def check_train(wl, cfg, result) -> tuple[list[str], str, dict]:
    """(errors, digest of metrics.csv and checkpoint.ckpt, reported outputs)."""
    errors = []
    with open(result.metrics_path) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    want = _expected_eval_rows(cfg.stream.total_steps, cfg.eval.cadence)
    if len(rows) != want:
        errors.append(f"metrics.csv has {len(rows)} rows, expected {want}")
    for row in rows:
        # loss, elbo, cat_kl_mean, cluster_acc, knn3, knn5, knn10
        if not all(math.isfinite(float(row[i])) for i in (1, 2, 3, 5, 6, 7, 8)):
            errors.append(f"metrics.csv row for step {row[0]} has a non-finite value")
    if not os.path.isfile(result.checkpoint_path):
        errors.append("checkpoint.ckpt is missing")
        digest = ""
    else:
        digest = _sha256(result.metrics_path) + _sha256(result.checkpoint_path)
    if wl.expect_expansion and not result.expansion_log:
        errors.append("no expansion fired")
    if wl.expect_replay:
        # The first replay batch comes two steps after the first snapshot.
        if not result.snapshot_steps:
            errors.append("no snapshot was taken")
        elif result.snapshot_steps[0] + 2 >= cfg.stream.total_steps:
            errors.append("no replay step ran")
    report = result.final_report
    outputs = {"cluster_acc": report.cluster_accuracy,
               "knn10_error": report.knn_error.get(10, float("nan")),
               "n_components": result.params.k,
               "expansions": len(result.expansion_log),
               "snapshots": len(result.snapshot_steps)}
    return errors, digest, outputs


def check_gradcheck(worst, passed) -> tuple[list[str], str, dict]:
    top = max(e for path in worst.values() for e in path.values())
    errors = []
    if not passed or not top < GRADCHECK_TOLERANCE:
        errors.append(f"gradcheck failed: worst relative error {top:.3e}")
    digest = hashlib.sha256(repr(sorted((p, sorted(e.items())) for p, e in worst.items()))
                            .encode()).hexdigest()
    return errors, digest, {"worst_rel_err": top}


def one_call(wl, seed: int, work: str, index: int) -> tuple[dict, object]:
    """Run the workload's call once, check it, remove its outputs.

    Returns the call's record and the final parameters (None for gradcheck
    or when the call raised).
    """
    from mixvae.train import run_gradcheck, run_train
    out_dir = os.path.join(work, f"call-{index}")
    cfg = None if wl.is_gradcheck else wl.config(seed, work, out_dir)
    params = None
    t0, c0 = time.perf_counter(), os.times()
    try:
        if wl.is_gradcheck:
            out = run_gradcheck(seed=seed, n_configs=wl.gradcheck_configs, verbose=False)
        else:
            out = run_train(cfg)
        failure = None
    except Exception as exc:  # a failed call is counted, not fatal to the benchmark
        out, failure = None, traceback.format_exception_only(type(exc), exc)[-1].strip()
    run_s, c1 = time.perf_counter() - t0, os.times()
    try:
        if failure:
            errors, digest, outputs = [f"call raised {failure}"], "", {}
        elif wl.is_gradcheck:
            errors, digest, outputs = check_gradcheck(*out)
        else:
            errors, digest, outputs = check_train(wl, cfg, out)
            params = out.params
    except (OSError, ValueError, IndexError) as exc:  # unreadable or malformed outputs
        errors, digest, outputs = [f"outputs unreadable: {exc}"], "", {}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    cpu_s = (c1.user - c0.user) + (c1.system - c0.system)
    return {"run_s": run_s, "cpu_s": cpu_s, "errors": errors, "digest": digest,
            "outputs": outputs}, params


def probes(wl, seed: int, work: str, params, batch: int) -> dict[str, float]:
    """Median ms of elbo() (forward only) and backward() on one fixed batch at the final K."""
    import numpy as np
    from mixvae.model import backward, elbo
    rng = np.random.default_rng([seed, 7])
    if wl.is_gradcheck:
        x = rng.uniform(0.05, 0.95, (batch, GRADCHECK_ARCH["input_dim"]))
    else:
        from mixvae.data import load_matrix_dataset
        x = load_matrix_dataset(os.path.join(work, "train.mvds")).images[:batch]
    eps = rng.standard_normal((x.shape[0], params.k, params.arch.n_z))
    return {"model.elbo.probe_ms": _median_call_ms(lambda: elbo(x, params, None, eps=eps)),
            "model.backward.probe_ms": _median_call_ms(lambda: backward(x, params, None, eps=eps))}


def _median_call_ms(fn, budget_s: float = 0.5, min_calls: int = 5,
                    max_calls: int = 200) -> float:
    fn()  # first call pays one-off allocation costs
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or (len(times) < max_calls
                                     and time.perf_counter() - start < budget_s):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def computed_counts(params, batch: int) -> dict[str, float]:
    """Counts from the architecture at the final K, labelled computed."""
    from tracing import adam_mbytes, backward_gflop
    a = params.arch
    shape = (a.input_dim, a.encoder, a.n_z, a.decoder)
    n_params = sum(buf.size for _, buf in params.buffers())
    return {"model.backward.marginal.gflop": backward_gflop(*shape, params.k, batch, params.k),
            "model.backward.constrained.gflop_needed": backward_gflop(*shape, params.k, batch, 1),
            "adam.adam_step.mbytes": adam_mbytes(n_params)}


def _gradcheck_params(seed: int):
    from mixvae.model import Architecture, init_params
    from mixvae.rng import STREAM_INIT, substream
    return init_params(Architecture(**GRADCHECK_ARCH), substream(seed, STREAM_INIT, 0),
                       GRADCHECK_K)


def run(wl, seed: int, seconds: float, trace: bool, work: str) -> dict:
    calls = []
    traced = []                          # (tracer, index of its call)
    params = None
    if trace:
        from tracing import FD_LAYER, Tracer, installed
    deadline = time.perf_counter() + seconds
    while True:
        # A traced run alternates untraced and traced calls after a first
        # untraced one, so each traced call has an untraced neighbour that is
        # also free of the process's one-off costs: their difference is the
        # tracing overhead.
        is_traced = trace and len(calls) >= 2 and len(calls) % 2 == 0
        if is_traced:
            tracer = Tracer()
            with installed(tracer):
                rec, last = one_call(wl, seed, work, len(calls))
            traced.append((tracer, len(calls)))
        else:
            rec, last = one_call(wl, seed, work, len(calls))
        # The first call of a process runs 5-10% slower than the rest (cold
        # caches, first-touch page faults): it is checked but not timed.
        rec.update(traced=is_traced, warmup=not calls)
        calls.append(rec)
        params = last if last is not None else params
        if rec["errors"] and rec["digest"] == "":
            break  # the program raised or lost its outputs; repeating will not help
        typical = sorted(c["run_s"] for c in calls)[len(calls) // 2]
        if len(calls) > MIN_CALLS and time.perf_counter() + typical > deadline:
            break
    # Same seed, same call: every call must write the same bytes, traced or not.
    first = calls[0]["digest"]
    for i, rec in enumerate(calls[1:], start=1):
        if rec["digest"] and first and rec["digest"] != first:
            rec["errors"].append(f"outputs differ from call 0 of the same seed (call {i})")
    if wl.is_gradcheck:
        params, batch = _gradcheck_params(seed), GRADCHECK_BATCH
    else:
        batch = wl.config(seed, work, work).stream.batch_size
    computed = computed_counts(params, batch) if params is not None else {}
    layers = None
    if trace:
        measured = probes(wl, seed, work, params, batch) if params is not None else {}
        per_call = [tracer.metrics(calls[i]["run_s"], calls[i - 1]["run_s"], computed, measured)
                    for tracer, i in traced]
        layers = {name: statistics.median(m[name] for m in per_call)
                  for name in (per_call[0] if per_call else ())}
        if wl.trace_gradcheck:
            # gradcheck is not gated as a workload of its own (see README.md),
            # so its finite-difference layer is traced here, on one call.
            tracer = Tracer()
            with installed(tracer):
                rec, _ = one_call(WORKLOADS["gradcheck"], seed, work, len(calls))
            rec.update(traced=True, warmup=False, workload="gradcheck")
            calls.append(rec)
            fd = tracer.metrics(rec["run_s"], rec["run_s"], {}, {})
            layers.update((k, v) for k, v in fd.items() if k.startswith(FD_LAYER))
    return {
        "calls": calls,
        "steps_per_call": wl.steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "computed": computed,
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("probe", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.mode == "probe":
        print(repr(probe(wl, args.seed, args.work)))
        return 0
    out = run(wl, args.seed, args.seconds, bool(args.trace), args.work)
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
