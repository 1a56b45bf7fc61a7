import numpy as np
import pytest

from conftest import tiny_params
from mixvae.model import generate
from mixvae.rng import RngState


def test_one_hot_prior_fixes_labels():
    params = tiny_params(k=3)
    x, y = generate(params, np.array([0.0, 1.0, 0.0]), 32, RngState(0, (30,)))
    assert np.all(y == 1)
    assert x.shape == (32, 6)


def test_fixed_seed_reproducible():
    params = tiny_params(k=3)
    pi = np.array([0.2, 0.5, 0.3])
    x1, y1 = generate(params, pi, 16, RngState(5, (31,)))
    x2, y2 = generate(params, pi, 16, RngState(5, (31,)))
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def test_label_frequencies_match_prior():
    # binomial concentration: 10^4 draws, tolerance 0.02
    params = tiny_params(k=2)
    pi = np.array([0.7, 0.3])
    _, y = generate(params, pi, 10 ** 4, RngState(6, (32,)))
    freq = np.mean(y == 0)
    assert abs(freq - 0.7) < 0.02


def test_outputs_are_bernoulli_means_in_unit_interval():
    params = tiny_params(k=3)
    x, _ = generate(params, np.full(3, 1 / 3), 64, RngState(7, (33,)))
    assert np.all(x > 0)
    assert np.all(x < 1)


def test_unnormalized_prior_rejected():
    params = tiny_params(k=2)
    with pytest.raises(ValueError):
        generate(params, np.array([0.6, 0.6]), 4, RngState(0, (34,)))


@pytest.mark.parametrize("pi", [[np.nan, np.nan], [np.nan, 1.0], [-0.5, 1.5], [0.0, 0.0]])
def test_prior_with_nan_negative_or_zero_mass_rejected(pi):
    # every comparison with NaN is False, so the check must pass only on
    # what it accepts
    params = tiny_params(k=2)
    with pytest.raises(ValueError, match="normalized"):
        generate(params, np.array(pi), 4, RngState(0, (36,)))


def test_wrong_length_prior_rejected():
    params = tiny_params(k=3)
    with pytest.raises(ValueError):
        generate(params, np.array([0.5, 0.5]), 4, RngState(0, (35,)))
