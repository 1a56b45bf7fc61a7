import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import mixvae
from mixvae import adam
from mixvae.adam import AdamState, adam_step
from mixvae.errors import KernelBuildError, MixvaeError, ShapeError
from conftest import random_inputs, tiny_params
from mixvae.model import FlatBuffers, ModelParams, StepBuffers, backward, draw_eps
from mixvae.rng import RngState


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
    """One Adam update as whole-array NumPy expressions, in place: the oracle of the C loop."""
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


def bits(a):
    return a.view(np.uint64)


def with_working_copy(p0):
    """A `ModelParams` over the one buffer `p0` whose step buffers hold a
    float32 shadow of its size, filled with NaN, so `adam_step` picks the
    working copy as it does in training."""
    params = ModelParams.__new__(ModelParams)
    FlatBuffers.__init__(params, {"w": p0.shape}, p0)
    params.step_buffers = StepBuffers()
    params.step_buffers.shadow = FlatBuffers(params.shapes, np.full(p0.size, np.nan, np.float32))
    return params


# 17 and 4099 are odd, so a vector body of 2, 4 or 8 doubles leaves a
# scalar tail after it; 1 to 5 are shorter than, or just past, one vector.
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 17, 4099])
def test_kernel_matches_whole_array_reference(n, dtype):
    # every bit of p, m and v, with signed zeros, subnormals and a gradient
    # whose square overflows (float64) or is near float32's largest; under a
    # float32 gradient also every bit of the working copy, over parameters
    # held at signed zeros, float64 and float32 subnormals and +-1e200,
    # which rounds to +-inf
    info = np.finfo(dtype)
    big = 1e200 if dtype == np.float64 else float(info.max)
    specials = np.array([0.0, -0.0, info.smallest_subnormal, -1e-310 if dtype == np.float64
                         else -1e-40, big, -big], dtype=dtype)
    rng = np.random.default_rng(n)
    p0 = rng.standard_normal(n)
    held = rng.random(n) < 0.3
    p0[held] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e-40, -1e-44, 1e200, -1e200], held.sum())
    p0[-1] = 1e200 if n % 2 else -1e200  # moved by no finite update
    params = with_working_copy(p0)
    shadow = params.step_buffers.shadow.vector
    state = AdamState()
    p, m, v = p0.copy(), np.zeros(n), np.zeros(n)
    for t in range(1, 4):
        g = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)).astype(dtype)
        pick = rng.random(n) < 0.3
        g[pick] = rng.choice(specials, pick.sum())
        g[held] = 0.0  # zero moments: the held parameters keep their values
        g[-1] = specials[2 * t % specials.size]  # the last element is in the tail
        adam_step(params, FlatBuffers({"w": (n,)}, g), state)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            whole_array_reference(p, m, v, g.astype(np.float64), t)
            p32 = p.astype(np.float32)
        assert np.array_equal(bits(params.vector), bits(p))
        assert np.array_equal(bits(state.m.vector), bits(m))
        assert np.array_equal(bits(state.v.vector), bits(v))
        if dtype == np.float32:
            assert np.array_equal(shadow.view(np.uint32), p32.view(np.uint32))
            assert np.isinf(shadow[-1]) and params.step_buffers.mirrored
        else:  # a float64 gradient leaves the working copy alone, and stale
            assert np.isnan(shadow).all() and not params.step_buffers.mirrored
    if dtype == np.float32 and n > 100:
        assert {0.0, -0.0} <= set(shadow[held].tolist())
        assert np.signbit(shadow[held & (p0 == 0)]).any()


class RecordingKernels(dict):
    """Stands in for the compiled entry points and records every call."""

    def __init__(self):
        super().__init__((np.dtype(d), self.call) for d in (np.float64, np.float32))
        self.calls = 0
        self.working_copies = []  # the pointer each call got for the float32 copy

    def call(self, *args):
        self.calls += 1
        self.working_copies.append(args[4])


@pytest.mark.parametrize("case", ["float32", "float64 gradient", "plain FlatBuffers"])
def test_only_a_float32_step_of_a_float32_model_gets_the_working_copy(case, monkeypatch):
    kernels = RecordingKernels()
    monkeypatch.setattr(adam, "_kernels", kernels)
    params = tiny_params(seed=8)
    params.compute_dtype = np.dtype(np.float32)
    _, grads, _ = backward(random_inputs(4, 6), params, None,
                           eps=draw_eps(params, 4, RngState(8, (65,))))
    bufs = params.step_buffers
    assert grads.vector.dtype == np.float32 and bufs.mirrored
    if case == "float64 gradient":
        grads = FlatBuffers(grads.shapes, grads.vector.astype(np.float64))
    elif case == "plain FlatBuffers":
        params = FlatBuffers(params.shapes, params.vector)
    adam_step(params, grads, AdamState())
    if case == "float32":
        assert kernels.working_copies == [bufs.shadow.vector.ctypes.data] and bufs.mirrored
    else:
        assert kernels.working_copies == [None]
    if case == "float64 gradient":  # the parameters moved and the shadow did not
        assert not bufs.mirrored


@pytest.mark.parametrize("case", ["float32 params", "float32 moment", "float16 gradient"])
def test_wrong_dtype_rejected_before_the_foreign_call(case, monkeypatch):
    kernels = RecordingKernels()
    monkeypatch.setattr(adam, "_kernels", kernels)
    params, grads, state = flat(w=np.zeros(3)), flat(w=np.ones(3)), AdamState()
    adam_step(params, grads, state)
    assert kernels.calls == 1
    if case == "float32 params":
        params = FlatBuffers(params.shapes, np.zeros(3, np.float32))
    elif case == "float32 moment":
        state.v = FlatBuffers(params.shapes, np.zeros(3, np.float32))
    else:
        grads.vector = np.zeros(3, np.float16)
    with pytest.raises(ShapeError):
        adam_step(params, grads, state)
    assert kernels.calls == 1 and state.t == 1


def test_read_only_parameters_rejected(monkeypatch):
    monkeypatch.setattr(adam, "_kernels", RecordingKernels())
    params = flat(w=np.zeros(3))
    params.vector.flags.writeable = False
    with pytest.raises(ShapeError):
        adam_step(params, flat(w=np.ones(3)), AdamState())
    assert adam._kernels.calls == 0


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """A fresh cache directory and no loaded kernel, so the next step builds."""
    monkeypatch.setattr(adam, "_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(adam, "_kernels", None)
    return tmp_path / "cache"


def test_missing_compiler_raises_naming_the_command(empty_cache, monkeypatch):
    monkeypatch.setattr(adam, "_compiler_command", lambda: ["mixvae-no-such-cc"])
    with pytest.raises(KernelBuildError, match="mixvae-no-such-cc") as err:
        adam_step(flat(w=np.zeros(2)), flat(w=np.ones(2)), AdamState())
    assert isinstance(err.value, MixvaeError)
    assert adam._kernels is None


def test_failing_compiler_raises_with_its_stderr(empty_cache, monkeypatch):
    command = [sys.executable, "-c", "import sys; sys.stderr.write('no such flag'); sys.exit(3)"]
    monkeypatch.setattr(adam, "_compiler_command", lambda: command)
    with pytest.raises(KernelBuildError, match="no such flag") as err:
        adam_step(flat(w=np.zeros(2)), flat(w=np.ones(2)), AdamState())
    assert shlex.join(command) in str(err.value)


def test_a_fresh_process_on_a_filled_cache_builds_nothing(empty_cache, tmp_path):
    adam_step(flat(w=np.zeros(2)), flat(w=np.ones(2)), AdamState())
    cached = sorted(os.listdir(empty_cache))
    assert len(cached) == 1 and cached[0].endswith(".so")
    # this compiler answers --version, which keys the cache, and fails any build
    fake = tmp_path / "cc-that-cannot-build"
    real = shlex.join(adam._compiler_command())
    fake.write_text(f'#!/bin/sh\nif [ "$1" = --version ]; then exec {real} "$@"; fi\n'
                    "echo 'a build was attempted' >&2\nexit 1\n")
    fake.chmod(0o755)
    src = os.path.dirname(os.path.dirname(mixvae.__file__))
    child = f"""
import sys
sys.path.insert(0, {src!r})
from mixvae import adam
from mixvae.config import apply_overrides, load_preset
from mixvae.train import run_train
adam._CACHE_DIR = {str(empty_cache)!r}
adam._compiler_command = lambda: [{str(fake)!r}]
cfg = apply_overrides(load_preset("toy-blobs-mgr-dyn"), [
    "stream.total_steps=40", "eval.cadence=40", "data.blob_train_per_class=50",
    "data.blob_test_per_class=20", "eval.knn_train_subsample=100", "out_dir={tmp_path}/run"])
print(run_train(cfg).adam.t)
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) >= 40
    assert sorted(os.listdir(empty_cache)) == cached


