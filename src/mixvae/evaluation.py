"""Evaluation metrics and exports.

Cluster accuracy maps each mixture component to its most represented
class and scores the induced labelling. k-NN error measures the
class-discriminability of the whole latent space without imposing a
parametric boundary. All tie-breaks are deterministic: argmax over
components and majority votes go to the lowest index/class, distance
ties resolve in train-index order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint
from .data import Dataset, default_image_hw
from .errors import ConfigError
from .kernels import check_finite
from .model import (
    ModelParams,
    component_posterior_params,
    encode_shared,
    generate,
    infer_task_posterior,
)
from .rng import STREAM_EVAL, RngState, substream

KNN_KS = (3, 5, 10)
_ENCODE_CHUNK = 2048
# Test x train squared-distance entries per k-NN block (1 MB of float64),
# and the fewest test rows per block: each block repacks the train
# latents for its GEMM, so very short blocks pay that again and again.
_KNN_BLOCK = 2 ** 17
_KNN_MIN_ROWS = 32


@dataclass
class EvalReport:
    step: int
    cluster_accuracy: float
    knn_error: dict[int, float]
    n_active_components: int
    confusion: np.ndarray          # (C, K) counts: class x argmax component
    per_class_accuracy: np.ndarray  # (C,)
    classes: tuple[int, ...]       # the C scored classes, in row order

    def summary(self) -> str:
        knn = " ".join(f"knn{k}={v:.4f}" for k, v in sorted(self.knn_error.items()))
        return (f"step={self.step} cluster_acc={self.cluster_accuracy:.4f} {knn} "
                f"components={self.n_active_components}")


def majority_mapping(assignments: np.ndarray, labels: np.ndarray,
                     n_components: int, n_classes: int) -> np.ndarray:
    """Component -> most represented class; ties to lowest class, empty -> -1."""
    mapping = np.full(n_components, -1, dtype=np.int64)
    for k in range(n_components):
        members = labels[assignments == k]
        if len(members):
            mapping[k] = int(np.argmax(np.bincount(members, minlength=n_classes)))
    return mapping


def cluster_accuracy(assignments: np.ndarray, labels: np.ndarray) -> float:
    """Accuracy after mapping each component to its majority class."""
    assignments = np.asarray(assignments, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if assignments.shape != labels.shape:
        raise ValueError(f"assignments length {assignments.shape} != labels {labels.shape}")
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    mapping = majority_mapping(assignments, labels, int(assignments.max()) + 1,
                               int(labels.max()) + 1)
    return float(np.mean(mapping[assignments] == labels))


def _encode(x: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Each row's shared representation h and q(y|x), `_ENCODE_CHUNK` rows at a time."""
    h, q = np.empty((x.shape[0], params.arch.encoder[-1])), np.empty((x.shape[0], params.k))
    for lo in range(0, x.shape[0], _ENCODE_CHUNK):
        rows = slice(lo, lo + _ENCODE_CHUNK)
        h[rows] = encode_shared(x[rows], params)
        q[rows] = infer_task_posterior(h[rows], params)
    return h, q


def task_posteriors(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """q(y|x) for a matrix of inputs, chunked to bound memory."""
    return _encode(x, params)[1]


def _latents(h: np.ndarray, comps: np.ndarray, params: ModelParams, rng: RngState,
             mode: str) -> np.ndarray:
    """Latents of the rows with shared representations h and argmax components
    comps, `_ENCODE_CHUNK` rows and one normal draw from rng at a time: z ~ q(z |
    x, y_hat) in sampled mode, that component's posterior mean in mean mode. A
    chunk's rows are grouped by component for `component_posterior_params`."""
    if mode not in ("sampled", "mean"):
        raise ValueError(f"unknown latent mode {mode!r}")
    latents = np.empty((h.shape[0], params.arch.n_z))
    for lo in range(0, h.shape[0], _ENCODE_CHUNK):
        rows = slice(lo, lo + _ENCODE_CHUNK)
        yhat, mu, sig = comps[rows], np.empty_like(latents[rows]), np.empty_like(latents[rows])
        # Not np.unique: NumPy 2 imports numpy.ma on its first call, and that
        # module's objects, made mid-run, can sit at the top of glibc's heap
        # and keep tens of MB freed below them resident.
        for k in np.flatnonzero(np.bincount(yhat)):
            mine = yhat == k
            mu[mine], sig[mine] = component_posterior_params(h[rows][mine], int(k), params)
        latents[rows] = mu + sig * rng.normal(mu.shape) if mode == "sampled" else mu
    return latents


def encode_eval_latents(dataset: Dataset, params: ModelParams, rng: RngState,
                        mode: str = "sampled") -> tuple[np.ndarray, np.ndarray]:
    """Latents (see `_latents`) and argmax components for every point in the dataset."""
    h, q = _encode(dataset.images, params)
    comps = np.argmax(q, axis=1)
    return _latents(h, comps, params, rng, mode), comps


def _k_nearest(d2: np.ndarray, k_top: int) -> np.ndarray:
    """Column indices of each row's k_top smallest entries, nearest first.

    Returns exactly np.argsort(d2, axis=1, kind="stable")[:, :k_top]
    without sorting whole rows. argpartition finds each row's k_top
    smallest entries and the largest of them, the bound. When no other
    entry equals the bound, those k_top columns, put in column order
    and stably sorted by distance, are the answer. A row with more
    entries <= bound than k_top (a distance tie at the boundary) stably
    sorts all of them instead, so the tie goes to the lowest columns.
    """
    top = np.sort(np.argpartition(d2, k_top - 1, axis=1)[:, :k_top], axis=1)
    vals = np.take_along_axis(d2, top, axis=1)
    bound = vals.max(axis=1, keepdims=True)
    nearest = np.take_along_axis(top, np.argsort(vals, axis=1, kind="stable"), axis=1)
    tied = np.flatnonzero(np.count_nonzero(d2 <= bound, axis=1) > k_top)
    for r in tied:
        c = np.flatnonzero(d2[r] <= bound[r])
        nearest[r] = c[np.argsort(d2[r, c], kind="stable")[:k_top]]
    return nearest


def knn_errors(train_latents: np.ndarray, train_labels: np.ndarray,
               test_latents: np.ndarray, test_labels: np.ndarray,
               ks: tuple[int, ...]) -> dict[int, float]:
    """Euclidean k-NN classification error for several k in one pass.

    Majority vote among the k nearest; exact distance ties resolve in
    train-index order (stable sort), vote ties to the smallest class.
    Squared distances are formed a block of test rows at a time
    (max(_KNN_MIN_ROWS, _KNN_BLOCK // n_train) rows, so at the presets'
    sizes a block's distances and partial-sort temporaries take a few
    MB), and each row's k nearest come from a partial sort
    (_k_nearest) that returns what a full stable sort of the row would.
    A non-finite distance raises NumericError.
    """
    train_latents = np.asarray(train_latents, dtype=np.float64)
    test_latents = np.asarray(test_latents, dtype=np.float64)
    train_labels = np.asarray(train_labels, dtype=np.int64)
    test_labels = np.asarray(test_labels, dtype=np.int64)
    n_train = train_latents.shape[0]
    for k in ks:
        if k < 1 or k > n_train:
            raise ValueError(f"k={k} invalid for {n_train} train points")
    if train_latents.shape[1] != test_latents.shape[1]:
        raise ValueError("latent dimensions disagree")
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    k_top = max(ks)
    train_sq = np.sum(train_latents ** 2, axis=1)
    correct = {k: 0 for k in ks}
    chunk = max(_KNN_MIN_ROWS, _KNN_BLOCK // n_train)
    class_ids = np.arange(n_classes)
    for lo in range(0, test_latents.shape[0], chunk):
        hi = min(lo + chunk, test_latents.shape[0])
        t = test_latents[lo:hi]
        # |t|^2 - 2 t.x + |x|^2 in place, bit for bit: scaling by -2 is
        # exact, and a - b is (-b) + a in IEEE arithmetic.
        d2 = t @ train_latents.T
        d2 *= -2.0
        d2 += np.sum(t ** 2, axis=1)[:, None]
        d2 += train_sq
        check_finite("k-NN squared distances", d2)
        votes = train_labels[_k_nearest(d2, k_top)]
        true = test_labels[lo:hi]
        for k in ks:
            counts = np.sum(votes[:, :k, None] == class_ids, axis=1)
            pred = np.argmax(counts, axis=1)  # first max -> smallest class
            correct[k] += int(np.sum(pred == true))
    n_test = test_latents.shape[0]
    return {k: 1.0 - correct[k] / n_test for k in ks}


def _only(dataset: Dataset, classes: tuple[int, ...]) -> Dataset:
    """The points of `dataset` whose label is one of `classes`."""
    return dataset.subset(np.flatnonzero(np.isin(dataset.labels, classes)))


def evaluate(params: ModelParams, test_dataset: Dataset, train_dataset: Dataset,
             rng: RngState, step: int = 0, knn_train_subsample: int = 10000,
             knn_test_subsample: int = 0, latent_mode: str = "sampled",
             ks: tuple[int, ...] = KNN_KS, classes: tuple[int, ...] | None = None) -> EvalReport:
    """All report fields in one read-only pass, over the points of `classes`
    (every class when None; see `train.run_classes`).

    Cluster accuracy, confusion, and per-class accuracy use the whole
    test set of those classes, the confusion and per-class accuracy one
    row per class in ascending order. The k-NN fit uses a seeded
    subsample of their training set (and optionally of their test set)
    to bound cost; latents for both sides are produced in the same mode
    from the given rng. The test set is encoded once: that encoding gives
    the argmax components and the k-NN test rows' latents.
    """
    c = max(test_dataset.n_classes, train_dataset.n_classes)
    classes = tuple(range(c)) if classes is None else tuple(sorted(set(classes)))
    if classes != tuple(range(c)):
        test_dataset, train_dataset = _only(test_dataset, classes), _only(train_dataset, classes)
    if len(test_dataset) == 0:
        raise ValueError("empty test set")

    n_sub = min(knn_train_subsample, len(train_dataset))
    train_sub = train_dataset.subset(rng.permutation(len(train_dataset))[:n_sub])
    pick = slice(None)  # the k-NN test rows
    if knn_test_subsample and knn_test_subsample < len(test_dataset):
        pick = rng.permutation(len(test_dataset))[:knn_test_subsample]
    train_z, _ = encode_eval_latents(train_sub, params, rng, latent_mode)
    h, q = _encode(test_dataset.images, params)
    assignments = np.argmax(q, axis=1)
    test_z = _latents(h[pick], assignments[pick], params, rng, latent_mode)
    usable = tuple(k for k in ks if k <= n_sub)
    knn = knn_errors(train_z, train_sub.labels, test_z, test_dataset.labels[pick],
                     usable) if usable else {}

    confusion = np.zeros((c, params.k), dtype=np.int64)
    np.add.at(confusion, (test_dataset.labels, assignments), 1)
    mapping = majority_mapping(assignments, test_dataset.labels, params.k, c)
    acc = float(np.mean(mapping[assignments] == test_dataset.labels))

    per_class = np.zeros(len(classes))
    for i, cls in enumerate(classes):
        members = assignments[test_dataset.labels == cls]
        per_class[i] = float(np.mean(mapping[members] == cls)) if len(members) else 0.0

    return EvalReport(step=step, cluster_accuracy=acc, knn_error=knn,
                      n_active_components=params.k, confusion=confusion[list(classes)],
                      per_class_accuracy=per_class, classes=classes)


def incremental_class_accuracy(params: ModelParams, test_dataset: Dataset) -> float:
    """Accuracy of argmax q(y|x) over all components against class labels.

    Requires a supervised run whose components are aligned to classes, so
    a K below the class count raises ConfigError.
    """
    if params.k < test_dataset.n_classes:
        raise ConfigError(f"K={params.k} smaller than the {test_dataset.n_classes} classes")
    q = task_posteriors(test_dataset.images, params)
    return float(np.mean(np.argmax(q, axis=1) == test_dataset.labels))


def incremental_task_accuracy(params: ModelParams, test_dataset: Dataset,
                              task_pairs: tuple[tuple[int, int], ...]) -> float:
    """Accuracy when each point's argmax is restricted to its own task's pair.

    Computed pointwise over the whole test set, so it can never fall
    below the unrestricted (incremental class) accuracy. A K below the
    class count, or a test class in no pair, raises ConfigError.
    """
    if params.k < test_dataset.n_classes:
        raise ConfigError(f"K={params.k} smaller than the {test_dataset.n_classes} classes")
    class_to_pair = {cls: pair for pair in task_pairs for cls in pair}
    uncovered = sorted(set(np.flatnonzero(np.bincount(test_dataset.labels)).tolist())
                       - class_to_pair.keys())
    if uncovered:
        raise ConfigError(f"task pairs {task_pairs} do not cover classes {uncovered}")
    q = task_posteriors(test_dataset.images, params)
    correct = 0
    for i, true in enumerate(test_dataset.labels):
        sub = [p for p in class_to_pair[int(true)] if p < params.k]
        correct += int(sub[int(np.argmax(q[i, sub]))] == true)
    return correct / len(test_dataset)


# ---------------------------------------------------------------------------
# Exports.

def export_latents_csv(path, latents: np.ndarray, labels: np.ndarray,
                       components: np.ndarray) -> None:
    """CSV with header index,label,component,z_0..z_{n_z-1}."""
    nz = latents.shape[1]
    header = "index,label,component," + ",".join(f"z_{j}" for j in range(nz))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(latents.shape[0]):
            zs = ",".join(repr(float(v)) for v in latents[i])
            fh.write(f"{i},{int(labels[i])},{int(components[i])},{zs}\n")


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5) of a single [0,1] grayscale image."""
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    data = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def sample_grid(samples: np.ndarray, image_hw: tuple[int, int],
                cols: int = 10) -> np.ndarray:
    """Tile flattened samples row-major into one image grid."""
    h, w = image_hw
    n = samples.shape[0]
    rows = (n + cols - 1) // cols
    grid = np.zeros((rows * h, cols * w))
    for i in range(n):
        r, c = divmod(i, cols)
        grid[r * h:(r + 1) * h, c * w:(c + 1) * w] = samples[i].reshape(h, w)
    return grid


GRID_MAGIC = b"MVMX\x01\x00"


def save_grid_matrix(path, matrix: np.ndarray) -> None:
    """Raw matrix file: magic, rows u64, cols u64, little-endian f64 payload."""
    m = np.asarray(matrix, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def export_samples(checkpoint_paths, n: int, out_pgm, out_matrix=None, seed: int = 0,
                   cols: int = 10) -> np.ndarray:
    """n generated samples per checkpoint, tiled `cols` per grid row.

    Checkpoints are ordered by their stored step, and the i-th draws from
    sub-stream (seed, STREAM_EVAL, 10**6 + i), so a run's snapshots, one
    per row, show what the model remembered as training progressed.
    """
    loaded = sorted((load_checkpoint(p) for p in checkpoint_paths), key=lambda c: c.step)
    flat = np.concatenate([
        generate(c.params, c.usage.prior(), n, substream(seed, STREAM_EVAL, 10 ** 6 + i))[0]
        for i, c in enumerate(loaded)])
    grid = sample_grid(flat, default_image_hw(loaded[0].params.arch.input_dim), cols=cols)
    write_pgm(out_pgm, grid)
    if out_matrix is not None:
        save_grid_matrix(out_matrix, flat)
    return grid
