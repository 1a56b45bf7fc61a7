"""Training orchestration: stream -> loss -> optimizer -> expansion -> replay -> eval.

Per-step order: fetch batch (real, or generated when a snapshot exists
and the 1:1 alternation selects replay) -> loss/backward -> optimizer
step -> usage update and screening (real batches only) -> expansion
check (snapshot first under the dynamic policy) -> fixed-policy snapshot
check -> periodic evaluation and metrics logging.

Runs are deterministic: every random draw comes from a named sub-stream
of the master seed, and stream batches are keyed by step, so the same
config and seed produce byte-identical metrics files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping

import numpy as np

from .adam import AdamState, adam_step
from .checkpoint import LoadedCheckpoint, load_checkpoint, save_checkpoint
from .config import ExperimentConfig, serialize_config
from .data import (
    Dataset,
    StreamSpec,
    load_idx,
    load_matrix_dataset,
    make_blob_dataset,
    next_batch,
    split_train_valid,
)
from .errors import ConfigError, NumericError
from .evaluation import EvalReport, evaluate, incremental_class_accuracy, incremental_task_accuracy
from .expansion import (
    ExpansionState,
    PoorSampleBuffer,
    expand,
    expand_to_labels,
    screen_batch,
    should_expand,
)
from .kernels import finite_difference_grad
from .model import (
    Architecture,
    ModelParams,
    StepBuffers,
    apply_memory_policy,
    backward,
    draw_eps,
    elbo,
    init_params,
    _run_forward,
)
from .replay import Snapshot, UsageCounts, replay_step, take_snapshot
from .rng import (
    STREAM_DATASET,
    STREAM_EVAL,
    STREAM_EXPAND,
    STREAM_INIT,
    STREAM_REPARAM,
    STREAM_REPLAY,
    STREAM_SHUFFLE,
    substream,
)

METRICS_HEADER = ("step,loss,elbo,cat_kl_mean,n_components,cluster_acc,"
                  "knn3,knn5,knn10,snapshot_taken,expansion_event")


def resolve_data_dir(cfg: ExperimentConfig) -> str:
    return cfg.data.dir or os.environ.get("MIXVAE_DATA", ".")


def build_datasets(cfg: ExperimentConfig) -> tuple[Dataset, Dataset, Dataset]:
    """(train, valid, test) per the config's data source."""
    d = cfg.data
    if d.source == "blobs":
        train = make_blob_dataset(d.blob_train_per_class, substream(cfg.seed, STREAM_DATASET, 0),
                                  n_classes=d.blob_classes, dim=d.blob_dim, noise=d.blob_noise,
                                  factor_dim=d.blob_factor_dim, factor_scale=d.blob_factor_scale)
        test = make_blob_dataset(d.blob_test_per_class, substream(cfg.seed, STREAM_DATASET, 1),
                                 n_classes=d.blob_classes, dim=d.blob_dim, noise=d.blob_noise,
                                 factor_dim=d.blob_factor_dim, factor_scale=d.blob_factor_scale,
                                 split="test")
        return train, test.subset(np.arange(0), "valid"), test
    base = resolve_data_dir(cfg)
    if d.source == "idx":
        full = load_idx(os.path.join(base, d.train_images), os.path.join(base, d.train_labels))
        test = load_idx(os.path.join(base, d.test_images), os.path.join(base, d.test_labels),
                        split="test")
    else:
        full = load_matrix_dataset(os.path.join(base, d.train_matrix))
        test = load_matrix_dataset(os.path.join(base, d.test_matrix), split="test")
    train, valid = split_train_valid(full, min(d.n_valid, len(full) - 1),
                                     substream(cfg.seed, STREAM_DATASET, 0))
    return train, valid, test


def run_classes(cfg: ExperimentConfig, train: Dataset) -> tuple[int, ...]:
    """The classes a run streams and is scored on: `stream.class_order`
    when it is set, otherwise every class of the training set."""
    return cfg.stream.class_order or tuple(range(train.n_classes))


def build_stream_spec(cfg: ExperimentConfig, train: Dataset) -> StreamSpec:
    order = run_classes(cfg, train)
    pairs = cfg.stream.task_pairs
    if cfg.stream.mode == "split_task" and not pairs:
        if train.n_classes % 2:
            raise ConfigError("split_task default pairing needs an even class count")
        pairs = tuple((c, c + 1) for c in range(0, train.n_classes, 2))
    return StreamSpec(mode=cfg.stream.mode, total_steps=cfg.stream.total_steps,
                      batch_size=cfg.stream.batch_size, class_order=order,
                      drift_window=cfg.stream.drift_window, task_pairs=pairs)


def _fmt(x) -> str:
    return repr(float(x))


def metrics_row(step: int, loss: float, elbo: float, cat_kl: float, n_components: int,
                report: EvalReport, snapshots: int, expansions: list[tuple[int, int, int]]) -> str:
    """One metrics.csv line under METRICS_HEADER; all floats via repr for
    byte-stable output."""
    ev = ";".join(f"{s}:{p}:{k}" for s, p, k in expansions)
    knn = [report.knn_error.get(k, float("nan")) for k in (3, 5, 10)]
    cells = [str(step), _fmt(loss), _fmt(elbo), _fmt(cat_kl), str(n_components),
             _fmt(report.cluster_accuracy), _fmt(knn[0]), _fmt(knn[1]), _fmt(knn[2]),
             str(snapshots), ev]
    return ",".join(cells) + "\n"


@dataclass
class TrainResult:
    out_dir: str
    metrics_path: str
    checkpoint_path: str
    params: ModelParams
    adam: AdamState
    usage: UsageCounts
    expansion_log: list
    snapshot_steps: list
    final_report: EvalReport
    reports: list = field(default_factory=list)


def run_train(cfg: ExperimentConfig) -> TrainResult:
    apply_memory_policy()
    train, _valid, test = build_datasets(cfg)
    spec = build_stream_spec(cfg, train)
    supervised = cfg.mode == "supervised"

    arch = Architecture(input_dim=train.dim, encoder=cfg.arch.encoder, n_z=cfg.arch.n_z,
                        decoder=cfg.arch.decoder, k_max=cfg.arch.k_max)
    params = init_params(arch, substream(cfg.seed, STREAM_INIT), cfg.arch.k_init)
    params.compute_dtype = np.dtype(cfg.arch.compute_dtype)
    adam = AdamState(lr=cfg.opt.lr, beta1=cfg.opt.beta1, beta2=cfg.opt.beta2, eps=cfg.opt.eps)
    usage = UsageCounts(params.k)
    buffer = PoorSampleBuffer(cfg.expansion.n_new, cfg.expansion.c_new,
                              max_age=max(1, cfg.expansion.consolidation))
    exp_state = ExpansionState(consolidation_period=cfg.expansion.consolidation,
                               finetune_iters=cfg.expansion.finetune_iters,
                               finetune_batch=cfg.expansion.finetune_batch)
    replay_on = cfg.replay.mode != "off"
    fixed_period = cfg.replay.snapshot_period if cfg.replay.snapshot == "fixed" else 0
    smgr = cfg.replay.mode == "smgr"

    reparam = substream(cfg.seed, STREAM_REPARAM)
    replay_rng = substream(cfg.seed, STREAM_REPLAY)

    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(cfg))
    metrics_path = os.path.join(cfg.out_dir, "metrics.csv")
    with open(metrics_path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
    per_class_path = os.path.join(cfg.out_dir, "per_class.csv")
    with open(per_class_path, "w") as fh:
        fh.write("step,class,accuracy\n")

    snapshot: Snapshot | None = None
    alternation_anchor: int | None = None  # first step with a snapshot available
    snapshot_steps: list[int] = []
    logged = (0, 0)  # snapshots and expansions already counted in metrics.csv
    reports: list[EvalReport] = []

    def note_snapshot(step: int) -> None:
        nonlocal snapshot, alternation_anchor
        snapshot = None  # released before the new copy is made
        snapshot = take_snapshot(params, usage, step)
        if alternation_anchor is None:
            alternation_anchor = step + 1
        snapshot_steps.append(step)
        # the live state the snapshot was just copied from; the snapshot
        # itself keeps only what replay reads
        save_checkpoint(os.path.join(cfg.out_dir, f"snapshot-{step:07d}.ckpt"), params,
                        AdamState(adam.lr, adam.beta1, adam.beta2, adam.eps), usage,
                        step, snapshot=True)

    for step in range(spec.total_steps):
        is_replay = (replay_on and snapshot is not None
                     and (step - alternation_anchor) % 2 == 1)
        if is_replay:
            x, y_gen = replay_step(snapshot, spec.batch_size, replay_rng, smgr or supervised)
            y_obs = y_gen
        else:
            batch = next_batch(spec, train, step, substream(cfg.seed, STREAM_SHUFFLE, step))
            x = batch.x
            y_obs = None
            if supervised:
                expand_to_labels(params, adam, usage, exp_state, batch)
                y_obs = batch.labels

        eval_step = (step + 1) % cfg.eval.cadence == 0 or step == spec.total_steps - 1
        eps = draw_eps(params, x.shape[0], reparam)
        try:
            loss, grads, bd = backward(x, params, reparam, y_obs=y_obs, eps=eps)
        except NumericError as exc:
            raise NumericError(f"{exc} at step {step}") from exc
        if eval_step and y_obs is not None:
            # The constrained loss decodes one component per sample; metrics.csv
            # logs the marginalized objective of the same batch and noise.
            bd = elbo(x, params, None, eps=eps)
        adam_step(params, grads, adam)
        del grads  # a view of the step block, which must not outlive its release below
        exp_state.steps_since_last_expansion += 1

        if not is_replay:
            usage.update(bd.task_posterior)
            if cfg.expansion.enabled and not supervised:
                screen_batch(x, bd.total, buffer, step)
                if should_expand(buffer, exp_state, params):
                    if replay_on and not fixed_period:
                        note_snapshot(step)
                    expand(params, adam, usage, buffer, exp_state,
                           substream(cfg.seed, STREAM_EXPAND, len(exp_state.expansion_log)),
                           step, replay_prior=usage.prior() if replay_on else None)

        if replay_on and fixed_period and (step + 1) % fixed_period == 0:
            note_snapshot(step)

        if eval_step:
            if step == spec.total_steps - 1:
                params.step_buffers = StepBuffers()  # released before the final evaluation
            report = evaluate(params, test, train, substream(cfg.seed, STREAM_EVAL, step),
                              step=step, knn_train_subsample=cfg.eval.knn_train_subsample,
                              knn_test_subsample=cfg.eval.knn_test_subsample,
                              latent_mode=cfg.eval.latent_mode, classes=spec.class_order)
            reports.append(report)
            with open(metrics_path, "a") as fh:
                fh.write(metrics_row(step, loss, float(np.mean(bd.total)),
                                     float(np.mean(bd.cat_kl)), params.k, report,
                                     len(snapshot_steps) - logged[0],
                                     exp_state.expansion_log[logged[1]:]))
            with open(per_class_path, "a") as fh:
                for cls, acc in zip(report.classes, report.per_class_accuracy):
                    fh.write(f"{step},{cls},{_fmt(acc)}\n")
            logged = (len(snapshot_steps), len(exp_state.expansion_log))

    ckpt_path = os.path.join(cfg.out_dir, "checkpoint.ckpt")
    save_checkpoint(ckpt_path, params, adam, usage, spec.total_steps)
    return TrainResult(out_dir=cfg.out_dir, metrics_path=metrics_path,
                       checkpoint_path=ckpt_path, params=params, adam=adam, usage=usage,
                       expansion_log=exp_state.expansion_log, snapshot_steps=snapshot_steps,
                       final_report=reports[-1], reports=reports)


def load_for_eval(cfg: ExperimentConfig, checkpoint_path,
                  split: str = "test") -> tuple[LoadedCheckpoint, Dataset, Dataset]:
    """The checkpoint, the training set and the chosen split, each loaded once;
    an empty split or an input-dim mismatch raises ConfigError."""
    loaded = load_checkpoint(checkpoint_path)
    train, valid, test = build_datasets(cfg)
    target = {"train": train, "valid": valid, "test": test}[split]
    if len(target) == 0:
        raise ConfigError(f"empty {split} split")
    if loaded.params.arch.input_dim != target.dim:
        raise ConfigError(f"checkpoint input dim {loaded.params.arch.input_dim} "
                          f"!= data dim {target.dim}")
    return loaded, train, target


def run_eval(cfg: ExperimentConfig, checkpoint_path, split: str = "test",
             out_csv: str | None = None) -> EvalReport:
    """Evaluate a checkpoint on a dataset split; print and append a CSV row.
    A supervised config also prints its incremental accuracies on the split,
    which are computed first: a K or task pairs that cannot score it raise
    ConfigError before anything is printed or written."""
    loaded, train, target = load_for_eval(cfg, checkpoint_path, split)
    params = loaded.params
    incremental = None
    if cfg.mode == "supervised":
        pairs = build_stream_spec(cfg, train).task_pairs
        incremental = (f"incremental_task={incremental_task_accuracy(params, target, pairs):.4f} "
                       f"incremental_class={incremental_class_accuracy(params, target):.4f}")
    report = evaluate(params, target, train, substream(cfg.seed, STREAM_EVAL, loaded.step),
                      step=loaded.step, knn_train_subsample=cfg.eval.knn_train_subsample,
                      knn_test_subsample=cfg.eval.knn_test_subsample,
                      latent_mode=cfg.eval.latent_mode, classes=run_classes(cfg, train))
    print(report.summary())
    if incremental:
        print(incremental)
    if out_csv:
        new = not os.path.exists(out_csv)
        with open(out_csv, "a") as fh:
            if new:
                fh.write(METRICS_HEADER + "\n")
            nan = float("nan")
            fh.write(metrics_row(loaded.step, nan, nan, nan, params.k, report, 0, []))
    return report


# ---------------------------------------------------------------------------
# Gradient checking against the finite-difference oracle.

GRADCHECK_TOLERANCE = 1e-4
# Central differences assume no ReLU changes side within a +-h step. A step
# of h on one parameter moves a ReLU input by h * |d input / d parameter|:
# exactly h for the unit's own bias, and for any other parameter of the
# gradcheck net a product of inputs below 1, Glorot weights below 1.1 and
# O(1) activations (at most 3.6 over 100 drawn configs). A margin of 10 h
# covers that with room to spare.
GRADCHECK_KINK_MARGIN = 10.0


def grad_rel_errors(params: ModelParams, grads: Mapping[str, np.ndarray],
                    loss: Callable[[ModelParams], float], h: float) -> dict[str, float]:
    """Max relative error of each analytic gradient buffer against central
    differences of loss(params). One clone is perturbed a buffer at a time."""
    trial = params.clone()
    out = {}
    for name, buf in trial.buffers():
        def f(v, name=name):
            trial[name] = v
            return loss(trial)
        fd = finite_difference_grad(f, buf, h)
        trial[name] = params[name]
        g = grads[name]
        denom = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
        out[name] = float(np.max(np.abs(g - fd) / denom))
    return out


def relu_margin(params: ModelParams, x: np.ndarray, eps: np.ndarray) -> float:
    """Smallest |input| of any encoder or decoder ReLU unit at inputs x and noise eps."""
    cache, _, _ = _run_forward(x, params, None, eps)
    layers = params.layers["enc"] + params.layers["dec"][:-1]
    return min(float(np.min(np.abs(h @ cache.w[w].T + cache.w[b])))
               for (w, b), (h, _) in zip(layers, cache.enc + cache.dec))


def run_gradcheck(seed: int = 0, n_configs: int = 5, h: float = 1e-5, verbose: bool = True):
    """Randomized tiny-net gradient checks for both loss paths.

    A config with a ReLU input within GRADCHECK_KINK_MARGIN * h of zero is
    redrawn from the same sub-stream, so every config is smooth across
    each +-h step. Returns (per-buffer max relative error by path, passed).
    """
    if n_configs < 1:
        raise ConfigError(f"gradcheck needs at least one config, got {n_configs}")
    arch = Architecture(input_dim=6, encoder=(5, 4), n_z=2, decoder=(4, 5), k_max=4)
    worst = {"marginal": {}, "constrained": {}}
    for i in range(n_configs):
        rng = substream(seed, STREAM_INIT, i)
        while True:
            params = init_params(arch, rng, k_init=3)
            for name, buf in params.buffers():
                if "b." in name or "prior" in name or name == "task_b":
                    buf += 0.3 * rng.normal(buf.shape)
            x = rng.uniform(0.05, 0.95, (2, 6))
            eps = rng.normal((2, params.k, arch.n_z))
            y = rng.integers(params.k, size=2)
            if relu_margin(params, x, eps) > GRADCHECK_KINK_MARGIN * h:
                break
        for path, y_obs in (("marginal", None), ("constrained", y)):
            _, grads, _ = backward(x, params, None, y_obs=y_obs, eps=eps)

            def loss(p):
                return backward(x, p, None, y_obs=y_obs, eps=eps)[0]
            errs = grad_rel_errors(params, grads, loss, h)
            for name, e in errs.items():
                worst[path][name] = max(worst[path].get(name, 0.0), e)
    passed = all(e < GRADCHECK_TOLERANCE for path in worst.values() for e in path.values())
    if verbose:
        for path, errs in worst.items():
            for name, e in sorted(errs.items()):
                flag = "ok" if e < GRADCHECK_TOLERANCE else "FAIL"
                print(f"gradcheck {path:12s} {name:12s} max_rel_err={e:.3e} {flag}")
        print(f"gradcheck overall: {'PASS' if passed else 'FAIL'}")
    return worst, passed


# ---------------------------------------------------------------------------
# Random-init k-NN dimensionality sweep.

def run_knn_sweep(cfg: ExperimentConfig, dims: tuple[int, ...] = (8, 16, 32, 64, 128, 256),
                  n_seeds: int = 3, k: int = 10, out_csv: str | None = None):
    """k-NN test error of randomly initialised models across latent sizes.

    For each (dim, seed): a fresh Glorot-initialised model, scored by
    `evaluate`'s k-NN fit under the config's eval settings.
    Returns {dim: [per-seed errors]}.
    """
    train, _valid, test = build_datasets(cfg)
    n_sub = min(cfg.eval.knn_train_subsample, len(train))
    if not 1 <= k <= n_sub:
        raise ConfigError(f"k={k} invalid for a k-NN train subsample of {n_sub} points")
    results: dict[int, list[float]] = {}
    rows = []
    for dim in dims:
        arch = Architecture(input_dim=train.dim, encoder=cfg.arch.encoder, n_z=dim,
                            decoder=cfg.arch.decoder, k_max=cfg.arch.k_max)
        errs = []
        for s in range(n_seeds):
            seed = cfg.seed + s
            params = init_params(arch, substream(seed, STREAM_INIT), cfg.arch.k_init)
            report = evaluate(params, test, train, substream(seed, STREAM_EVAL, dim),
                              knn_train_subsample=n_sub,
                              knn_test_subsample=cfg.eval.knn_test_subsample,
                              latent_mode=cfg.eval.latent_mode, ks=(k,))
            errs.append(report.knn_error[k])
            rows.append((dim, seed, report.knn_error[k]))
        results[dim] = errs
        print(f"knn-sweep n_z={dim}: {k}-NN error {100 * np.mean(errs):.2f}% "
              f"(+/- {100 * np.std(errs):.2f}) over {n_seeds} seeds")
    if out_csv:
        with open(out_csv, "w") as fh:
            fh.write("n_z,seed,knn_error\n")
            for dim, seed, err in rows:
                fh.write(f"{dim},{seed},{_fmt(err)}\n")
    return results
