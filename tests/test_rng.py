import math

import numpy as np

from mixvae.rng import (
    ALGORITHM_ID,
    STREAM_REPARAM,
    STREAM_SHUFFLE,
    RngState,
    substream,
)


def test_same_seed_same_sequence():
    a = RngState(42, (1,))
    b = RngState(42, (1,))
    assert np.array_equal(a.normal(100), b.normal(100))
    assert np.array_equal(a.integers(1000, size=50), b.integers(1000, size=50))


def test_different_keys_decorrelate():
    a = substream(42, STREAM_REPARAM).normal(1000)
    b = substream(42, STREAM_SHUFFLE).normal(1000)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.1


def test_per_step_keying_is_order_free():
    # batch draws keyed by step do not depend on how many draws happened before
    direct = substream(7, STREAM_SHUFFLE, 5).integers(100, size=10)
    _ = substream(7, STREAM_SHUFFLE, 0).integers(100, size=10)
    again = substream(7, STREAM_SHUFFLE, 5).integers(100, size=10)
    assert np.array_equal(direct, again)


def test_categorical_respects_probabilities():
    rng = RngState(11, (4,))
    draws = rng.categorical(np.array([0.7, 0.3]), 20000)
    freq = np.mean(draws == 0)
    assert abs(freq - 0.7) < 0.02


def test_algorithm_id_fixed():
    assert ALGORITHM_ID == "pcg64"


def test_monte_carlo_mean():
    # oracle: sample mean concentrates at mu within 4 sigma / sqrt(n)
    n = 10 ** 5
    mu = np.array([0.7, -2.0])
    sig = np.array([1.5, 0.3])
    rng = RngState(9, (7,))
    draws = mu + sig * rng.normal((n, 2))
    bound = 4 * sig / math.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - mu) < bound)
