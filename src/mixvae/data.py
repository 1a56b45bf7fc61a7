"""Dataset ingestion and non-stationary stream scheduling.

Supports the standard IDX image/label files (optionally gzipped), a
generic binary matrix+labels format for non-IDX sources, and a synthetic
blob generator for desk-scale runs. Streams are pure functions of
(spec, dataset, step, rng), so a training run's batch sequence is fully
determined by the seed and stays unchanged when unrelated features
(replay, expansion) are toggled.
"""

from __future__ import annotations

import gzip
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError, StreamExhausted
from .rng import RngState

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

MATRIX_MAGIC = b"MVDS\x01\x00"
# magic, N, D, C, rows, cols, dtype code; see `save_matrix_dataset`.
MATRIX_HEAD = struct.Struct("<6sQQQIIB")

STREAM_MODES = ("iid", "sequential", "continuous_drift", "split_task")


def default_image_hw(dim: int) -> tuple[int, int]:
    """Display shape of a flat dim-vector: (s, dim // s) for s = round(sqrt(dim))
    when that tiles it exactly, one row otherwise."""
    side = int(round(np.sqrt(dim)))
    return (side, dim // side) if side * (dim // side) == dim else (1, dim)


@dataclass
class Dataset:
    images: np.ndarray          # (N, D) float64 in [0, 1]
    labels: np.ndarray          # (N,) int64 in [0, n_classes)
    split: str = "train"
    n_classes: int = 0
    image_hw: tuple[int, int] = (0, 0)
    _by_class: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 2 or self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"count: images {self.images.shape} inconsistent with labels {self.labels.shape}")
        # written so that a NaN, which fails every comparison, is rejected too
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise DataFormatError("payload: intensities outside [0, 1]")
        if self.n_classes == 0:
            self.n_classes = int(self.labels.max()) + 1 if len(self.labels) else 0
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise DataFormatError("payload: label outside [0, n_classes)")
        if self.image_hw == (0, 0):
            self.image_hw = default_image_hw(self.dim)

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def dim(self) -> int:
        return self.images.shape[1]

    def class_indices(self, c: int) -> np.ndarray:
        if c not in self._by_class:
            self._by_class[c] = np.flatnonzero(self.labels == c)
        return self._by_class[c]

    def subset(self, idx: np.ndarray, split: str | None = None) -> "Dataset":
        return Dataset(self.images[idx], self.labels[idx], split or self.split,
                       self.n_classes, self.image_hw)


def _read_maybe_gzip(path) -> memoryview:
    """The file's bytes, gunzipped when its name ends in .gz."""
    path = str(path)
    try:
        with gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb") as fh:
            return memoryview(fh.read())
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"gzip: {path} is truncated or corrupt ({exc})") from None


def _read_idx(path, magic_want: int, n_dims: int, what: str) -> tuple[list[int], np.ndarray]:
    """The dimensions and uint8 payload of a big-endian IDX file."""
    data = _read_maybe_gzip(path)
    head = 4 + 4 * n_dims
    if len(data) < head:
        raise DataFormatError(f"magic: {what} file {path} shorter than its header")
    magic, *dims = struct.unpack(f">{1 + n_dims}I", data[:head])
    if magic != magic_want:
        raise DataFormatError(f"magic: expected {magic_want:#010x} in {path}, got {magic:#010x}")
    payload, size = data[head:], math.prod(dims)
    if len(payload) != size:
        raise DataFormatError(f"payload: {what} file {path} has {len(payload)} bytes, "
                              f"expected {size}")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def load_idx(images_path, labels_path, split: str = "train") -> Dataset:
    """Parse a big-endian IDX image/label file pair into a Dataset.

    Pixel bytes are divided by 255. Raises DataFormatError naming the
    offending field (gzip, magic, count, payload) on malformed input.
    """
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "image")
    (n_labels,), labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label")
    if n != n_labels:
        raise DataFormatError(f"count: {n} images but {n_labels} labels")
    return Dataset(pixels.reshape(n, rows * cols) / 255.0, labels.astype(np.int64),
                   split=split, image_hw=(rows, cols))


def save_matrix_dataset(path, dataset: Dataset) -> None:
    """Generic binary layout: magic, N u64, D u64, C u64, rows u32, cols u32,
    dtype u8 (0 = f64), then N*D little-endian f64 intensities, then N i64 labels."""
    with open(path, "wb") as fh:
        fh.write(MATRIX_HEAD.pack(MATRIX_MAGIC, len(dataset), dataset.dim, dataset.n_classes,
                                  *dataset.image_hw, 0))
        fh.write(np.ascontiguousarray(dataset.images, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(dataset.labels, dtype="<i8").tobytes())


def read_le_into(fh, out: np.ndarray) -> None:
    """Fill `out` from the file's next out.nbytes bytes, stored little-endian."""
    raw = out.view(out.dtype.newbyteorder("<"))
    fh.readinto(raw)
    if raw.dtype != out.dtype:
        out.byteswap(inplace=True)


def load_matrix_dataset(path, split: str = "train") -> Dataset:
    """Read a `save_matrix_dataset` file, its payloads straight into their arrays."""
    with open(path, "rb") as fh:
        head = fh.read(MATRIX_HEAD.size)
        if head[:6] != MATRIX_MAGIC:
            raise DataFormatError(f"magic: {path} is not a matrix dataset file")
        if len(head) < MATRIX_HEAD.size:
            raise DataFormatError(f"header: {path} has {len(head)} bytes, shorter than "
                                  f"its {MATRIX_HEAD.size}-byte header")
        _, n, d, c, rows, cols, dtype = MATRIX_HEAD.unpack(head)
        if dtype != 0:
            raise DataFormatError(f"dtype: unsupported code {dtype}")
        size, need = os.fstat(fh.fileno()).st_size, MATRIX_HEAD.size + 8 * n * d + 8 * n
        if size != need:
            raise DataFormatError(f"payload: {path} has {size} bytes, expected {need}")
        images, labels = np.empty((n, d)), np.empty(n, dtype=np.int64)
        read_le_into(fh, images)
        read_le_into(fh, labels)
    return Dataset(images, labels, split=split, n_classes=int(c), image_hw=(rows, cols))


def split_train_valid(dataset: Dataset, n_valid: int, rng: RngState) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then the last n_valid examples form the validation set."""
    if n_valid >= len(dataset):
        raise ValueError(f"n_valid={n_valid} must be smaller than N={len(dataset)}")
    if n_valid == 0:
        return dataset, dataset.subset(np.array([], dtype=np.int64), "valid")
    perm = rng.permutation(len(dataset))
    return dataset.subset(perm[:-n_valid], "train"), dataset.subset(perm[-n_valid:], "valid")


def blob_prototypes(n_classes: int, dim: int, hot: float = 0.95,
                    cold: float = 0.05) -> np.ndarray:
    """Class prototypes: `hot` on one block of w = dim // n_classes dims, `cold` elsewhere.

    Class c owns the block [c*w, (c+1)*w). The blocks are disjoint, so
    no input dimension is hot for two classes; the last `dim % n_classes`
    dimensions are cold for every class.
    """
    width = dim // n_classes
    if width < 2 or n_classes < 2:
        raise ValueError("need dim >= 2 * n_classes and at least 2 classes")
    protos = np.full((n_classes, dim), cold)
    for c in range(n_classes):
        protos[c, c * width:(c + 1) * width] = hot
    return protos


def blob_factors(n_classes: int, dim: int, factor_dim: int = 2,
                 scale: float = 0.15) -> np.ndarray:
    """Fixed per-class factor-loading matrices, (C, dim, factor_dim).

    Loadings span all input dimensions, so classes compete for the same
    encoder features: representing one class's within-class variation
    costs capacity that later classes can overwrite. The matrices are
    deterministic constants, identical across experiment seeds.
    """
    gen = RngState(715517, (n_classes, dim, factor_dim))
    return scale * gen.normal((n_classes, dim, factor_dim))


def make_blob_dataset(n_per_class: int, rng: RngState, n_classes: int = 4,
                      dim: int = 16, noise: float = 0.05, hot: float = 0.95,
                      cold: float = 0.05, factor_dim: int = 2,
                      factor_scale: float = 0.15, split: str = "train") -> Dataset:
    """Well-separated Gaussian-blob classes for desk-scale runs.

    Each sample is its class prototype (see `blob_prototypes`: class c
    is hot on its own disjoint block of dims) plus a per-class low-rank
    factor term plus isotropic noise, clipped to [0,1]:

        x = proto[c] + loadings[c] @ u + noise * eps,  u, eps ~ N(0, I)

    Any two prototypes differ by hot - cold on 2 * (dim // n_classes)
    dims, many within-class standard deviations, so the classes stay
    well separated while still carrying within-class structure worth
    encoding.
    """
    protos = blob_prototypes(n_classes, dim, hot, cold)
    loadings = blob_factors(n_classes, dim, factor_dim, factor_scale)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    u = rng.normal((len(labels), factor_dim))
    x = (protos[labels]
         + np.einsum("ndf,nf->nd", loadings[labels], u)
         + noise * rng.normal((len(labels), dim)))
    return Dataset(np.clip(x, 0.0, 1.0), labels, split=split, n_classes=n_classes,
                   image_hw=(1, dim))


# ---------------------------------------------------------------------------
# Stream scheduling.

@dataclass
class StreamSpec:
    mode: str
    total_steps: int
    batch_size: int
    class_order: tuple[int, ...]
    drift_window: int = 0              # 0 selects the default 0.2 * block
    task_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.mode not in STREAM_MODES:
            raise ConfigError(f"unknown stream mode {self.mode!r}")
        if self.total_steps < 1 or self.batch_size < 1:
            raise ConfigError("total_steps and batch_size must be positive")
        if self.mode == "split_task":
            if not self.task_pairs:
                raise ConfigError("split_task mode needs task_pairs")
            if self.total_steps % len(self.task_pairs) != 0:
                raise ConfigError("total_steps must divide equally between tasks")
        else:
            if not self.class_order:
                raise ConfigError("class_order must not be empty")
            if len(set(self.class_order)) != len(self.class_order):
                raise ConfigError("class_order must not repeat classes")
            if self.mode in ("sequential", "continuous_drift"):
                if self.total_steps % len(self.class_order) != 0:
                    raise ConfigError("total_steps must divide equally between classes")
        if self.mode == "continuous_drift":
            block = self.total_steps // len(self.class_order)
            if self.drift_window == 0:
                self.drift_window = max(1, int(0.2 * block))
            if self.drift_window > block:
                raise ConfigError(f"drift_window {self.drift_window} exceeds block length {block}")

    @property
    def block_steps(self) -> int:
        n = len(self.task_pairs) if self.mode == "split_task" else len(self.class_order)
        return self.total_steps // n


@dataclass
class Batch:
    x: np.ndarray
    labels: np.ndarray
    step: int


def _draw_from(dataset: Dataset, pool: np.ndarray, n: int, rng: RngState) -> np.ndarray:
    if len(pool) == 0:
        raise ConfigError("stream refers to a class with no samples")
    return pool[rng.integers(len(pool), size=n)]


def next_batch(spec: StreamSpec, dataset: Dataset, step: int, rng: RngState) -> Batch:
    """The training batch for one stream step.

    iid: uniform with replacement over every class in class_order.
    sequential: uniform within the current class block.
    continuous_drift: during the first drift_window steps of block c>0,
    each slot draws the new class with probability ramping linearly from
    0 to 1 and the previous class otherwise.
    split_task: sequential over task_pairs, uniform within the pair.
    """
    if step < 0 or step >= spec.total_steps:
        raise StreamExhausted(f"step {step} outside [0, {spec.total_steps})")
    n = spec.batch_size

    if spec.mode == "iid":
        pool = np.concatenate([dataset.class_indices(c) for c in spec.class_order])
        idx = _draw_from(dataset, pool, n, rng)
    elif spec.mode == "split_task":
        task = min(step // spec.block_steps, len(spec.task_pairs) - 1)
        a, b = spec.task_pairs[task]
        pool = np.concatenate([dataset.class_indices(a), dataset.class_indices(b)])
        idx = _draw_from(dataset, pool, n, rng)
    else:
        block = spec.block_steps
        c = min(step // block, len(spec.class_order) - 1)
        cur = spec.class_order[c]
        t_in = step - c * block
        if spec.mode == "continuous_drift" and c > 0 and t_in < spec.drift_window:
            p_new = t_in / spec.drift_window
            take_new = rng.uniform(0.0, 1.0, n) < p_new
            idx = np.empty(n, dtype=np.int64)
            n_new = int(take_new.sum())
            if n_new:
                idx[take_new] = _draw_from(dataset, dataset.class_indices(cur), n_new, rng)
            if n - n_new:
                prev = spec.class_order[c - 1]
                idx[~take_new] = _draw_from(dataset, dataset.class_indices(prev), n - n_new, rng)
        else:
            idx = _draw_from(dataset, dataset.class_indices(cur), n, rng)

    return Batch(dataset.images[idx], dataset.labels[idx], step)
