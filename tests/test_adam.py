import numpy as np
import pytest

from mixvae.adam import CHUNK, AdamState, adam_step
from mixvae.errors import ShapeError
from mixvae.model import FlatBuffers


def flat(**arrays):
    """FlatBuffers holding a copy of each named array, in argument order."""
    out = FlatBuffers({name: np.shape(a) for name, a in arrays.items()})
    for name, a in arrays.items():
        out[name] = a
    return out


def scalar_adam_reference(g_seq, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8, x0=0.0):
    """Independent scalar implementation of the published Adam recurrence."""
    m = v = 0.0
    x = x0
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def whole_array_reference(p, m, v, g, t, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update as unchunked whole-array expressions, in place."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


def test_zero_gradient_fresh_state_is_identity():
    params = flat(w=np.array([1.0, -2.0, 3.0]))
    state = AdamState()
    adam_step(params, flat(w=np.zeros(3)), state)
    assert np.array_equal(params["w"], [1.0, -2.0, 3.0])
    assert state.t == 1


def test_zero_gradients_forever_keep_params_fixed():
    params = flat(w=np.array([0.5]))
    state = AdamState()
    for _ in range(10):
        adam_step(params, flat(w=np.zeros(1)), state)
    assert params["w"][0] == 0.5
    assert state.t == 10


def test_first_step_magnitude():
    # for constant g the first bias-corrected update is lr * 1/(1+eps)
    params = flat(w=np.array([0.0]))
    state = AdamState(lr=1e-3)
    adam_step(params, flat(w=np.array([1.0])), state)
    assert params["w"][0] == pytest.approx(-1e-3 * (1.0 / (1.0 + 1e-8)), rel=1e-12)


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_matches_scalar_reference(steps):
    params = flat(w=np.array([0.0]))
    state = AdamState(lr=1e-3)
    for _ in range(steps):
        adam_step(params, flat(w=np.array([1.0])), state)
    assert params["w"][0] == pytest.approx(scalar_adam_reference([1.0] * steps), rel=1e-12)


def test_matches_scalar_reference_varying_gradients():
    gs = [0.3, -1.2, 2.0, 0.0, -0.5]
    params = flat(w=np.array([0.7]))
    state = AdamState(lr=0.01)
    for g in gs:
        adam_step(params, flat(w=np.array([g])), state)
    assert params["w"][0] == pytest.approx(
        scalar_adam_reference(gs, lr=0.01, x0=0.7), rel=1e-12)


def test_t_increments_by_one_per_step():
    state = AdamState()
    params = flat(w=np.zeros(2))
    for expected in range(1, 5):
        adam_step(params, flat(w=np.ones(2)), state)
        assert state.t == expected


def test_shape_mismatch_rejected():
    state = AdamState()
    with pytest.raises(ShapeError):
        adam_step(flat(w=np.zeros(3)), flat(w=np.zeros(2)), state)
    adam_step(flat(w=np.zeros(3)), flat(w=np.zeros(3)), state)
    with pytest.raises(ShapeError):  # moments of another length
        adam_step(flat(w=np.zeros(4)), flat(w=np.zeros(4)), state)


def test_accumulator_shapes_track_params():
    state = AdamState()
    params = flat(a=np.zeros((2, 3)), b=np.zeros(4))
    adam_step(params, flat(a=np.ones((2, 3)), b=np.ones(4)), state)
    assert state.m["a"].shape == (2, 3)
    assert state.v["b"].shape == (4,)
    assert state.m.shapes == state.v.shapes == params.shapes


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_chunked_pass_matches_whole_array_reference(n):
    # chunk edges must not change a bit of p, m or v
    rng = np.random.default_rng(n)
    p0 = rng.standard_normal(n)
    params = flat(w=p0)
    state = AdamState()
    p, m, v = p0.copy(), np.zeros(n), np.zeros(n)
    for t in range(1, 4):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)
        adam_step(params, flat(w=g), state)
        whole_array_reference(p, m, v, g, t)
        assert np.array_equal(params.vector, p)
        assert np.array_equal(state.m.vector, m)
        assert np.array_equal(state.v.vector, v)
