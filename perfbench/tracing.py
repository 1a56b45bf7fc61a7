"""Per-layer spans, recorded from the benchmark's own files.

`installed(tracer)` swaps the module-level names that `run_train`,
`expand`, `evaluate` and `run_gradcheck` look up at call time (for
example `mixvae.train.backward` or `mixvae.evaluation.knn_errors`) for
wrappers that time each call, and puts the originals back on exit.
The wrappers draw no randomness, copy no arrays and reorder nothing, so
a traced run writes the same bytes as an untraced one; the benchmark
checks that on every traced run. Nothing under `src/` is changed.

A span's self time is its duration minus the time of the spans it
encloses. Top-level spans are those no other span encloses; their sum
over the traced run time is the trace's coverage.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from contextlib import contextmanager

# (module, attribute, span label). An attribute with a dot is a method
# looked up on a class of that module.
TARGETS = (
    ("mixvae.train", "build_datasets", "data.load"),
    ("mixvae.train", "init_params", "model.init_params"),
    ("mixvae.train", "substream", "rng.substream"),
    ("mixvae.train", "next_batch", "data.next_batch"),
    ("mixvae.train", "backward", "model.backward"),
    ("mixvae.train", "adam_step", "adam.adam_step"),
    ("mixvae.train", "screen_batch", "expansion.screen_batch"),
    ("mixvae.train", "expand", "expansion.expand"),
    ("mixvae.train", "replay_step", "replay.replay_step"),
    ("mixvae.train", "take_snapshot", "replay.take_snapshot"),
    ("mixvae.train", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("mixvae.train", "evaluate", "evaluation.evaluate"),
    ("mixvae.train", "finite_difference_grad", "kernels.finite_difference_grad"),
    ("mixvae.replay", "UsageCounts.update", "replay.usage_update"),
    ("mixvae.model", "ModelParams.clone", "model.ModelParams.clone"),
    ("mixvae.expansion", "backward", "expansion.finetune_backward"),
    ("mixvae.expansion", "adam_step", "expansion.finetune_adam_step"),
    ("mixvae.evaluation", "task_posteriors", "evaluation.task_posteriors"),
    ("mixvae.evaluation", "encode_eval_latents", "evaluation.encode_eval_latents"),
    ("mixvae.evaluation", "knn_errors", "evaluation.knn_errors"),
)

# Labels reported as a call count and total seconds.
_COUNTED = (
    "evaluation.evaluate", "evaluation.knn_errors", "evaluation.encode_eval_latents",
    "evaluation.task_posteriors", "model.backward.real", "model.backward.replay",
    "adam.adam_step", "replay.replay_step", "replay.take_snapshot", "replay.usage_update",
    "expansion.screen_batch", "expansion.expand", "expansion.finetune_backward",
    "expansion.finetune_adam_step", "checkpoint.save_checkpoint", "data.next_batch",
    "kernels.finite_difference_grad", "kernels.fd_eval", "model.ModelParams.clone",
    "rng.substream",
)
# Metric-name prefixes of the finite-difference layer, which only gradcheck exercises.
FD_LAYER = ("kernels.", "model.ModelParams.clone.")
# Labels called once per stream step (or per finite-difference coordinate),
# reported also as per-call ms at p50 and p90.
_PER_CALL = (
    "model.backward.real", "model.backward.replay", "adam.adam_step",
    "replay.replay_step", "data.next_batch", "evaluation.knn_errors", "kernels.fd_eval",
)


def _spec() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    out = {}
    for label in _COUNTED:
        out[f"{label}.calls"] = ("count", "lower")
        out[f"{label}.s"] = ("s", "lower")
    for label in _PER_CALL:
        out[f"{label}.p50_ms"] = ("ms", "lower")
        out[f"{label}.p90_ms"] = ("ms", "lower")
    out.update({
        "expansion.expand.self_s": ("s", "lower"),
        "data.load_s": ("s", "lower"),
        "model.init_params_s": ("s", "lower"),
        "model.elbo.probe_ms": ("ms", "lower"),
        "model.backward.probe_ms": ("ms", "lower"),
        "model.backward.marginal.gflop": ("GFLOP", "lower"),
        "model.backward.constrained.gflop_needed": ("GFLOP", "lower"),
        "model.decode_rows_used_frac": ("ratio", "higher"),
        "adam.adam_step.mbytes": ("MB", "lower"),
        "checkpoint.mbytes": ("MB", "lower"),
        "train.run_s": ("s", "lower"),
        "train.loop_self_s": ("s", "lower"),
        "trace.coverage": ("ratio", "higher"),
        "trace.overhead_s": ("s", "lower"),
    })
    return out


PER_LAYER = _spec()


class Tracer:
    """Span durations per label, kept in memory for one traced call."""

    def __init__(self):
        self.durations: dict[str, list[float]] = {}
        self.self_s: dict[str, float] = {}
        self.open: list[list] = []           # [label, child seconds] per open span
        self.top_level_s = 0.0
        self.replay_pending = False          # the next training backward is a replay step
        self.rows_decoded = 0
        self.rows_used = 0
        self.bytes_written = 0

    def _span(self, label, fn, args, kwargs):
        frame = [label, 0.0]
        self.open.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.open.pop()
            self.durations.setdefault(label, []).append(dt)
            self.self_s[label] = self.self_s.get(label, 0.0) + dt - frame[1]
            if self.open:
                self.open[-1][1] += dt
            else:
                self.top_level_s += dt

    def _count_rows(self, x, params, y_obs) -> None:
        b = x.shape[0] if x.ndim == 2 else 1
        self.rows_decoded += b * params.k
        self.rows_used += b * params.k if y_obs is None else b

    def wrapper(self, label: str, fn):
        if label == "model.backward":
            def traced(x, params, rng, y_obs=None, eps=None):
                if any(f[0] == "kernels.finite_difference_grad" for f in self.open):
                    name = "kernels.fd_eval"
                elif self.replay_pending:
                    name = "model.backward.replay"
                else:
                    name = "model.backward.real"
                self.replay_pending = False
                self._count_rows(x, params, y_obs)
                return self._span(name, fn, (x, params, rng), {"y_obs": y_obs, "eps": eps})
        elif label == "expansion.finetune_backward":
            def traced(x, params, rng, y_obs=None, eps=None):
                self._count_rows(x, params, y_obs)
                return self._span(label, fn, (x, params, rng), {"y_obs": y_obs, "eps": eps})
        elif label == "replay.replay_step":
            def traced(*args, **kwargs):
                out = self._span(label, fn, args, kwargs)
                self.replay_pending = True
                return out
        elif label == "checkpoint.save_checkpoint":
            def traced(path, *args, **kwargs):
                out = self._span(label, fn, (path,) + args, kwargs)
                self.bytes_written += os.path.getsize(path)
                return out
        else:
            def traced(*args, **kwargs):
                return self._span(label, fn, args, kwargs)
        return traced

    def _calls(self, label: str) -> int:
        return len(self.durations.get(label, ()))

    def _total(self, label: str) -> float:
        return math.fsum(self.durations.get(label, ()))

    def _pct_ms(self, label: str, q: float) -> float:
        """Nearest-rank percentile of per-call time in ms; 0 when never called."""
        d = sorted(self.durations.get(label, ()))
        if not d:
            return 0.0
        return 1e3 * d[max(0, math.ceil(q * len(d)) - 1)]

    def metrics(self, run_s: float, untraced_run_s: float, computed: dict,
                probes: dict) -> dict[str, float]:
        """Every PER_LAYER metric, from this trace plus computed counts and probes."""
        out = {}
        for label in _COUNTED:
            out[f"{label}.calls"] = self._calls(label)
            out[f"{label}.s"] = self._total(label)
        for label in _PER_CALL:
            out[f"{label}.p50_ms"] = self._pct_ms(label, 0.5)
            out[f"{label}.p90_ms"] = self._pct_ms(label, 0.9)
        out["expansion.expand.self_s"] = self.self_s.get("expansion.expand", 0.0)
        out["data.load_s"] = self._total("data.load")
        out["model.init_params_s"] = self._total("model.init_params")
        out["model.decode_rows_used_frac"] = (self.rows_used / self.rows_decoded
                                              if self.rows_decoded else 0.0)
        out["checkpoint.mbytes"] = self.bytes_written / 1e6
        out["train.run_s"] = run_s
        out["train.loop_self_s"] = run_s - self.top_level_s
        out["trace.coverage"] = self.top_level_s / run_s
        out["trace.overhead_s"] = run_s - untraced_run_s
        out.update(computed)
        out.update(probes)
        return out


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for p in path:
        owner = getattr(owner, p)
    return owner, name


@contextmanager
def installed(tracer: Tracer):
    """Route every TARGETS name through the tracer for the duration of the block."""
    saved = []
    try:
        for module_name, attr, label in TARGETS:
            owner, name = _resolve(module_name, attr)
            fn = getattr(owner, name)
            saved.append((owner, name, fn))
            setattr(owner, name, tracer.wrapper(label, fn))
        yield tracer
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)


# ---------------------------------------------------------------------------
# Counts computed from the architecture, not measured.

def backward_gflop(input_dim: int, encoder, n_z: int, decoder, k: int, batch: int,
                   decoded_rows_per_sample: int) -> float:
    """Matmul GFLOP of one backward() call: forward plus reverse pass.

    Each dense layer costs 2*rows*fan_in*fan_out forward and twice that in
    reverse (weight and input gradients), so 6*rows*fan_in*fan_out in all.
    The decoder runs on batch * decoded_rows_per_sample rows: K for the
    marginal loss, 1 for the rows the constrained loss actually uses.
    """
    enc = (input_dim,) + tuple(encoder)
    dec = (n_z,) + tuple(decoder) + (input_dim,)
    h = enc[-1]
    macs = batch * sum(a * b for a, b in zip(enc, enc[1:]))
    macs += batch * k * h                                  # task head
    macs += batch * decoded_rows_per_sample * 2 * n_z * h  # latent heads
    macs += batch * decoded_rows_per_sample * sum(a * b for a, b in zip(dec, dec[1:]))
    return 6.0 * macs / 1e9


def adam_mbytes(n_params: int) -> float:
    """Bytes one adam_step touches at the least: read p, g, m, v and write p, m, v."""
    return 7 * 8 * n_params / 1e6
