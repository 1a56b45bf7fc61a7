"""Seeded benchmark inputs, written as matrix dataset files.

The generators here belong to the benchmark and use their own NumPy
PCG64 streams, so a change to the program's own synthetic data
(`mixvae.data.make_blob_dataset`) cannot change what the benchmark
feeds it. The program only ever sees the files, written with
`mixvae.data.save_matrix_dataset`. The same seed gives the same bytes.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Distinct stream keys so the blob and digit sets of one seed are unrelated.
_KEY_BLOBS = 1
_KEY_DIGITS = 2


def _rng(seed: int, key: int, split: str) -> np.random.Generator:
    return np.random.default_rng([seed, key, 0 if split == "train" else 1])


def blobs(seed: int, n_per_class: int, split: str, n_classes: int = 4, dim: int = 16,
          noise: float = 0.05, factor_dim: int = 2, factor_scale: float = 0.15):
    """(x, labels) for 16-d 4-class blobs with within-class low-rank structure.

    Class c is hot (0.95) on dims [c*w, (c+1)*w) with w = dim // n_classes
    and cold (0.05) elsewhere, plus a per-class factor term and noise,
    clipped to [0, 1]. Prototypes and loadings depend only on the seed,
    so the train and test splits share them.
    """
    shared = np.random.default_rng([seed, _KEY_BLOBS])
    width = dim // n_classes
    protos = np.full((n_classes, dim), 0.05)
    for c in range(n_classes):
        protos[c, c * width:(c + 1) * width] = 0.95
    loadings = factor_scale * shared.standard_normal((n_classes, dim, factor_dim))
    rng = _rng(seed, _KEY_BLOBS, split)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    u = rng.standard_normal((len(labels), factor_dim))
    x = (protos[labels] + np.einsum("ndf,nf->nd", loadings[labels], u)
         + noise * rng.standard_normal((len(labels), dim)))
    return np.clip(x, 0.0, 1.0), labels


def _digit_prototypes(rng: np.random.Generator, n_classes: int, side: int,
                      pad: int) -> np.ndarray:
    """One stroke image per class on a padded canvas, values in [0, 1].

    Each class is 2-4 quadratic Bezier strokes rendered as Gaussian dots,
    which gives thin connected ink on a dark background like handwriting.
    """
    size = side + 2 * pad
    yy, xx = np.mgrid[0:size, 0:size]
    t = np.linspace(0.0, 1.0, 40)[:, None]
    out = np.zeros((n_classes, size, size))
    for c in range(n_classes):
        img = np.zeros((size, size))
        for _ in range(rng.integers(2, 5)):
            p0, p1, p2 = rng.uniform(pad + 4, pad + side - 4, (3, 2))
            pts = (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t ** 2 * p2
            d2 = (yy[None] - pts[:, 0, None, None]) ** 2 + (xx[None] - pts[:, 1, None, None]) ** 2
            img = np.maximum(img, np.exp(-d2 / (2 * 0.9 ** 2)).max(axis=0))
        out[c] = np.clip(1.6 * img, 0.0, 1.0)
    return out


def digits(seed: int, n_per_class: int, split: str, n_classes: int = 10, side: int = 28):
    """(x, labels) for 784-d 10-class stroke images with MNIST-like ink.

    Samples are their class prototype shifted by up to 2 pixels each way,
    scaled in intensity, with noise on the strokes, clipped to [0, 1] and
    quantised to 1/255 like 8-bit scans.
    """
    pad = 2
    protos = _digit_prototypes(np.random.default_rng([seed, _KEY_DIGITS]), n_classes, side, pad)
    rng = _rng(seed, _KEY_DIGITS, split)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    n = len(labels)
    offsets = rng.integers(0, 2 * pad + 1, (n, 2))
    gain = rng.uniform(0.7, 1.0, n)
    x = np.empty((n, side * side))
    for i in range(n):
        oy, ox = offsets[i]
        x[i] = protos[labels[i], oy:oy + side, ox:ox + side].reshape(-1)
    ink = x > 0.05
    x = gain[:, None] * x + ink * 0.08 * rng.standard_normal(x.shape)
    return np.round(np.clip(x, 0.0, 1.0) * 255.0) / 255.0, labels


GENERATORS = {"blobs": blobs, "digits": digits}


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_inputs(out_dir, seed: int, kind: str, n_train_per_class: int,
                 n_test_per_class: int) -> dict[str, str]:
    """Write train.mvds and test.mvds under out_dir; return {file name: sha256}."""
    from mixvae.data import Dataset, save_matrix_dataset
    gen = GENERATORS[kind]
    digests = {}
    for split, n in (("train", n_train_per_class), ("test", n_test_per_class)):
        x, labels = gen(seed, n, split)
        side = int(round(np.sqrt(x.shape[1])))
        hw = (side, side) if side * side == x.shape[1] else (1, x.shape[1])
        name = f"{split}.mvds"
        path = os.path.join(out_dir, name)
        save_matrix_dataset(path, Dataset(x, labels, split=split,
                                          n_classes=int(labels.max()) + 1, image_hw=hw))
        digests[name] = sha256(path)
    return digests
