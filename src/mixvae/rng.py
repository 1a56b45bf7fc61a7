"""Deterministic random number generation with named sub-streams.

All stochastic behaviour in the package (weight init, reparameterization
noise, replay sampling, stream shuffling, evaluation sampling, expansion
finetuning) flows through one 64-bit PRNG algorithm: numpy's PCG64,
keyed by a master seed plus an integer sub-stream key. Sub-streams are
statistically independent, so toggling one feature (e.g. replay) never
perturbs the draws of another. The algorithm identifier is written into
checkpoints so runs stay reproducible across builds.
"""

from __future__ import annotations

import numpy as np

# Recorded in checkpoint headers; bump only if the generator algorithm changes.
ALGORITHM_ID = "pcg64"

# Sub-stream keys. Each consumer owns one top-level key; per-step or
# per-event consumers append a second key element.
STREAM_INIT = 0       # weight initialization
STREAM_REPARAM = 1    # reparameterization noise during training
STREAM_REPLAY = 2     # generative replay sampling
STREAM_SHUFFLE = 3    # data shuffling / per-step batch draws
STREAM_EVAL = 4       # evaluation-time latent sampling and subsampling
STREAM_EXPAND = 5     # minibatch draws and noise during expansion finetuning
STREAM_DATASET = 6    # synthetic dataset generation


class RngState:
    """A seeded PCG64 generator bound to a (seed, sub-stream key) pair.

    Identical seed + key + call sequence yields an identical output
    sequence. The wrapped numpy Generator is exposed as ``.gen``.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.key)
        self.gen = np.random.Generator(np.random.PCG64(seq))

    def normal(self, shape=None) -> np.ndarray:
        return self.gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return self.gen.uniform(low, high, shape)

    def integers(self, n: int, size=None) -> np.ndarray:
        """Uniform integers in [0, n)."""
        return self.gen.integers(0, n, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.gen.permutation(n)

    def categorical(self, p: np.ndarray, size: int) -> np.ndarray:
        """Draw `size` indices from the probability vector `p`."""
        return self.gen.choice(len(p), size=size, p=p)


def substream(seed: int, *key: int) -> RngState:
    """Shorthand for RngState(seed, key)."""
    return RngState(seed, key)
