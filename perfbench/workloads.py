"""The benchmark's workloads: inputs, program configuration and expectations.

Every workload is a closed loop: one caller runs one `run_train` (or
`run_gradcheck`) call at a time and starts the next only when the last
has returned. Step counts are sized so that each call takes a few
seconds on a 2-core box and five or more calls fit in one measured run:
the host's speed swings by up to a third over tens of seconds, and a
median over many short calls rides that out where one long call cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

# The full-scale MNIST architecture from the paper's presets:
# 784 -> 1200 -> 600 -> 300 -> 150, n_z 32, decoder 500 -> 500.
_WIDE = ("data.n_valid=0", "eval.knn_train_subsample=1000", "eval.knn_test_subsample=0",
         "expansion.enabled=false")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: str | None = None          # generator in inputs.GENERATORS, None for gradcheck
    n_train_per_class: int = 0
    n_test_per_class: int = 0
    preset: str | None = None
    overrides: tuple[str, ...] = ()
    total_steps: int = 0               # stream steps per run_train call
    gradcheck_configs: int = 0         # configs per run_gradcheck call
    expect_expansion: bool = False
    expect_replay: bool = False
    trace_gradcheck: bool = False      # traced runs add one traced gradcheck call

    @property
    def is_gradcheck(self) -> bool:
        return self.gradcheck_configs > 0

    @property
    def steps(self) -> int:
        """Units of work in one call: stream steps, or gradcheck configs."""
        return self.gradcheck_configs or self.total_steps

    def config(self, seed: int, data_dir: str, out_dir: str):
        """The program's ExperimentConfig; reads only the generated matrix files."""
        from mixvae.config import apply_overrides, load_preset
        return apply_overrides(load_preset(self.preset), [
            f"seed={seed}", f"out_dir={out_dir}", "data.source=matrix", f"data.dir={data_dir}",
            f"stream.total_steps={self.total_steps}", *self.overrides])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="toy-stream",
        why=("toy-blobs-mgr-dyn on 16-d blobs: per-call overhead, k-NN eval, expansion "
             "finetuning and snapshots all matter; its traced runs also trace one gradcheck call"),
        inputs="blobs", n_train_per_class=2000, n_test_per_class=400,
        preset="toy-blobs-mgr-dyn", overrides=("data.n_valid=0",),
        # 250 steps per class instead of the preset's 1500, so one measured run
        # holds enough calls for a steady median; eval still runs every 500 steps.
        total_steps=1000, expect_expansion=True, expect_replay=True, trace_gradcheck=True),
    Workload(
        name="wide-k1-iid",
        why=("full-scale MNIST net at K=1, iid, no replay or expansion: encoder and Adam set "
             "the cost, the decoder sees only 64 rows"),
        inputs="digits", n_train_per_class=200, n_test_per_class=50,
        preset="mnist-seq-nomgr",
        overrides=_WIDE + ("stream.mode=iid", "arch.k_init=1", "eval.cadence=40"),
        total_steps=40),
    Workload(
        name="wide-k25-smgr",
        why=("full-scale MNIST net at K=25 with SMGR replay: decoder and loss set the cost, "
             "on 1600 used rows (real) and 64 used of 1600 (replay)"),
        inputs="digits", n_train_per_class=200, n_test_per_class=50,
        preset="mnist-seq-smgr-fixedT",
        overrides=_WIDE + ("stream.mode=iid", "arch.k_init=25", "replay.snapshot_period=4",
                           "eval.cadence=12"),
        total_steps=12, expect_replay=True),
    # Runnable on demand but not in BENCHMARK.json: its calls are pure
    # interpreter overhead, and on a host whose interpreter speed swings
    # twofold its run_s spread over ten seeds reached 28%, past the largest
    # bound a metric may have. toy-stream's traced runs measure its layer.
    Workload(
        name="gradcheck",
        why=("run_gradcheck: the only caller of finite differences, ModelParams.clone and a "
             "full backward per coordinate; run on demand, too unsteady to gate"),
        gradcheck_configs=2),
)}
