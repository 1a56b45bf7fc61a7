import numpy as np
import pytest

from conftest import fd_check, forward_loss, random_inputs, tiny_params
from mixvae.model import backward, draw_eps
from mixvae.rng import RngState


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_marginal_loss_gradients_match_fd(seed):
    params = tiny_params(seed=seed)
    x = random_inputs(2, 6, seed=seed + 50)
    eps = draw_eps(params, 2, RngState(seed, (20,)))
    worst = fd_check(params, x, eps)
    assert max(worst.values()) < 1e-4, worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constrained_loss_gradients_match_fd(seed):
    params = tiny_params(seed=seed)
    x = random_inputs(2, 6, seed=seed + 60)
    eps = draw_eps(params, 2, RngState(seed, (21,)))
    y = RngState(seed, (22,)).integers(params.k, size=2)
    worst = fd_check(params, x, eps, y_obs=y)
    assert max(worst.values()) < 1e-4, worst


def test_unobserved_component_buffers_get_zero_gradient():
    params = tiny_params()
    x = random_inputs(3, 6)
    eps = draw_eps(params, 3, RngState(1, (23,)))
    y = np.array([1, 1, 1])
    _, grads, _ = backward(x, params, None, y_obs=y, eps=eps)
    for name in ("lat_w", "lat_b", "prior_mu", "prior_rho"):
        assert np.allclose(grads[name][0], 0.0), name
        assert np.allclose(grads[name][2], 0.0), name
        assert not np.allclose(grads[name][1], 0.0), name


def test_duplicated_sample_leaves_mean_gradient_unchanged():
    params = tiny_params()
    x = random_inputs(2, 6)
    eps = draw_eps(params, 2, RngState(2, (24,)))
    _, g1, _ = backward(x, params, None, eps=eps)
    x_doubled = np.concatenate([x, x])
    eps_doubled = np.concatenate([eps, eps])
    _, g2, _ = backward(x_doubled, params, None, eps=eps_doubled)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12), name


def test_task_bias_shift_leaves_other_gradients():
    params = tiny_params()
    x = random_inputs(4, 6)
    eps = draw_eps(params, 4, RngState(3, (25,)))
    _, g1, _ = backward(x, params, None, eps=eps)
    shifted = params.clone()
    shifted["task_b"][:] += 11.0
    _, g2, _ = backward(x, shifted, None, eps=eps)
    for name in g1:
        if name == "task_b":
            continue
        assert np.allclose(g1[name], g2[name], atol=1e-9), name


def test_loss_is_negative_mean_elbo():
    params = tiny_params()
    x = random_inputs(8, 6)
    eps = draw_eps(params, 8, RngState(4, (26,)))
    loss, _, bd = backward(x, params, None, eps=eps)
    assert loss == pytest.approx(-float(np.mean(bd.total)), abs=1e-12)


@pytest.mark.parametrize("batch", [1, 5])
def test_forward_loss_is_backward_loss_bit_for_bit(batch):
    params = tiny_params(seed=batch)
    x = random_inputs(batch, 6, seed=batch + 70)
    eps = draw_eps(params, batch, RngState(batch, (29,)))
    y = RngState(batch, (30,)).integers(params.k, size=batch)
    for y_obs in (None, y):
        loss, _, _ = backward(x, params, None, y_obs=y_obs, eps=eps)
        assert forward_loss(x, params, eps, y_obs) == loss
    # a single unbatched sample takes the squeezed paths of elbo and supervised_elbo
    loss, _, _ = backward(x[0], params, None, y_obs=y[:1], eps=eps[:1])
    assert forward_loss(x[0], params, eps[:1], int(y[0])) == loss
    loss, _, _ = backward(x[0], params, None, eps=eps[:1])
    assert forward_loss(x[0], params, eps[:1]) == loss


def test_rng_replay_forward_backward_same_noise():
    params = tiny_params()
    x = random_inputs(2, 6)
    loss1, _, _ = backward(x, params, RngState(9, (27,)))
    loss2, _, _ = backward(x, params, RngState(9, (27,)))
    assert loss1 == loss2


def test_y_obs_out_of_range():
    params = tiny_params(k=2)
    x = random_inputs(2, 6)
    with pytest.raises(IndexError):
        backward(x, params, RngState(0, (28,)), y_obs=np.array([0, 2]))
