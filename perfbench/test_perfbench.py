"""Smoke tests of the benchmark's own code, at tiny step counts.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs in-process at a few steps, traced and untraced, and
must pass its own output checks. The full-size runs are what run.py
measures; these only show that the harness works and stays consistent
with BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Tiny variants: same code paths, a few steps each.
TINY = {
    "toy-stream": dict(total_steps=400),
    "wide-k1-iid": dict(total_steps=3),
    "wide-k25-smgr": dict(total_steps=4, overrides=WORKLOADS["wide-k25-smgr"].overrides
                          + ("replay.snapshot_period=1",)),
    "gradcheck": dict(gradcheck_configs=1),
}


def _tiny(name: str, work) -> object:
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name])
    if wl.inputs:
        inputs.write_inputs(str(work), 3, wl.inputs, wl.n_train_per_class, wl.n_test_per_class)
    return wl


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_inputs_repeat_byte_for_byte(tmp_path):
    for kind in inputs.GENERATORS:
        digests = []
        for seed in (5, 5, 6):
            d = tmp_path / f"{kind}-{len(digests)}"
            d.mkdir()
            digests.append(inputs.write_inputs(str(d), seed, kind, 3, 2))
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_matches_untraced_and_passes_checks(name, tmp_path):
    wl = _tiny(name, tmp_path)
    res = worker.run(wl, 3, 0.0, True, str(tmp_path))
    training = [c for c in res["calls"] if "workload" not in c]
    assert [c["errors"] for c in res["calls"]] == [[]] * len(res["calls"])
    assert len(training) == 1 + worker.MIN_CALLS and len({c["digest"] for c in training}) == 1
    layers = res["layers"]
    assert set(layers) == set(tracing.PER_LAYER)
    assert layers["trace.coverage"] > 0.9
    if not wl.is_gradcheck:
        assert layers["model.backward.real.calls"] > 0
    assert (layers["kernels.fd_eval.calls"] > 0) == (wl.is_gradcheck or wl.trace_gradcheck)
    assert not [p for p in os.listdir(tmp_path) if p.startswith("call-")]
    summary = bench.summarize(dict(res, setup_s=[0.1]), True)
    assert summary["correct"]
    assert summary["attempted"] == 1 + worker.MIN_CALLS + wl.trace_gradcheck
    assert set(summary["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    wl = _tiny("gradcheck", tmp_path)
    res = worker.run(wl, 3, 0.0, False, str(tmp_path))
    assert len(res["calls"]) == 1 + worker.MIN_CALLS
    assert [c["warmup"] for c in res["calls"]] == [True] + [False] * worker.MIN_CALLS
    summary = bench.summarize(dict(res, setup_s=[0.3, 0.1, 0.2]), False)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["metrics"]["setup_s"]["value"] == 0.2
    assert set(summary["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_failed_check_is_counted(tmp_path):
    wl = dataclasses.replace(_tiny("toy-stream", tmp_path), total_steps=8)
    res = worker.run(wl, 3, 0.0, False, str(tmp_path))  # too short for any expansion
    summary = bench.summarize(dict(res, setup_s=[0.1]), False)
    assert not summary["correct"] and summary["failed"] == summary["attempted"]
    assert "no expansion fired" in res["calls"][0]["errors"]


def test_benchmark_json_matches_harness():
    spec = _benchmark_json()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: wl.why for name, wl in WORKLOADS.items() if name != "gradcheck"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gradcheck",
                        "--seed", "0", "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
