"""mixvae benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload toy-stream --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, with nothing installed. The benchmark generates the workload's
input files from --seed in a temporary directory inside the checkout,
times set-up in fresh processes, then measures the workload in one
fresh worker process for --seconds seconds and checks its outputs. BLAS
threads are pinned to one in every process it starts, through the
environment. All outputs are deleted before it exits.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones, medians
over traced calls whose outputs must match the untraced calls of the
same seed byte for byte. The line before it is a JSON object with the details:
every sample, reported outputs, computed counts, input digests and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread: on a 2-vCPU VM with CPU steal, a matmul split over two
# threads waits for the stolen one, and call times spread two to three
# times wider than with one thread (see perfbench/README.md).
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150

END_TO_END = {  # name -> unit
    "setup_s": "s",      # import mixvae + build_datasets + init_params, fresh process
    "run_s": "s",        # wall time of one run_train / run_gradcheck call
    "step_ms": "ms",     # run_s per stream step (per config for gradcheck)
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = SRC
    # Bytecode is cached as for any user, so setup_s does not depend on
    # whether the caller's environment turns caching off.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0]}


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, check=True)


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    from workloads import WORKLOADS
    import inputs
    wl = WORKLOADS[workload]
    digests = {}
    if wl.inputs:
        digests = inputs.write_inputs(work, seed, wl.inputs, wl.n_train_per_class,
                                      wl.n_test_per_class)
    common = ["--workload", workload, "--seed", str(seed), "--work", work]
    setup = [float(_worker(["probe", *common], 60).stdout.strip().splitlines()[-1])
             for _ in range(SETUP_PROBES)]
    _worker(["run", *common, "--seconds", str(seconds), "--trace", str(int(trace))],
            CHILD_TIMEOUT_S)
    with open(os.path.join(work, "result.json")) as fh:
        res = json.load(fh)
    res["setup_s"] = setup
    res["inputs_sha256"] = digests
    return res


def summarize(res: dict, trace: bool) -> dict:
    calls = res["calls"]
    failed = sum(1 for c in calls if c["errors"])
    if trace:
        from tracing import PER_LAYER
        metrics = {name: {"value": res["layers"].get(name, 0.0), "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        run_s = [c["run_s"] for c in calls if not c["warmup"]]
        values = {"setup_s": statistics.median(res["setup_s"]),
                  "run_s": statistics.median(run_s),
                  "step_ms": 1e3 * statistics.median(run_s) / res["steps_per_call"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mixvae", "__init__.py")):
        print(f"benchmark: no program source at {SRC}/mixvae; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads BLAS in this process
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import mixvae
    if os.path.dirname(os.path.dirname(os.path.abspath(mixvae.__file__))) != SRC:
        print(f"benchmark: mixvae imported from {mixvae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark: {args.workload} seed {args.seed} did not complete: {exc}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = summarize(res, bool(args.trace))
    timed = sum(1 for c in res["calls"] if not c["warmup"])
    samples = {} if args.trace else {"setup_s": len(res["setup_s"]), "run_s": timed,
                                     "step_ms": timed}
    for name, m in summary["metrics"].items():
        note = f"  (median of {samples[name]})" if name in samples else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "setup_s_samples": res["setup_s"],
              "calls": res["calls"], "computed": res["computed"],
              "inputs_sha256": res["inputs_sha256"]}
    print(json.dumps({"detail": detail}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
