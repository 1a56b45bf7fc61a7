"""float32 compute (`arch.compute_dtype`): the training step's forward and
backward run in float32 against float64 master parameters."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import forward_loss, random_inputs, tiny_params
from mixvae import adam, model
from mixvae.adam import AdamState, adam_step
from mixvae.checkpoint import load_checkpoint
from mixvae.config import apply_overrides, load_preset
from mixvae.data import Dataset, save_matrix_dataset
from mixvae.model import (Architecture, FlatBuffers, ModelParams, backward, draw_eps,
                          init_params)
from mixvae.rng import RngState
from mixvae.train import grad_rel_errors, run_train

# Tolerances of the float32 step against the float64 one, fixed before
# measuring. float32 rounds each operation at 6e-8 relative; the loss sums
# 784 reconstruction terms and K components of O(500) nats, and each
# gradient entry is a sum over the batch and over up to 1,200 units, so a
# relative error of 1e-5 on the loss and 1e-4 on the gradient's 2-norm
# leaves one to two orders of magnitude above a sqrt(n)-growing rounding error.
LOSS_RTOL = 1e-5
GRAD_RTOL = 1e-4

FULL_SCALE = Architecture(input_dim=784, encoder=(1200, 600, 300, 150), n_z=32,
                          decoder=(500, 500), k_max=25)


def with_dtype(params, dtype):
    params.compute_dtype = np.dtype(dtype)
    return params


@pytest.mark.parametrize("k", [1, 25])
def test_float32_loss_and_gradients_are_within_tolerance_of_float64(k):
    rng = RngState(0, (k, 61))
    params = init_params(FULL_SCALE, rng, k_init=k)
    x = rng.uniform(0.0, 1.0, (64, FULL_SCALE.input_dim))
    eps = draw_eps(params, 64, rng)
    y = rng.integers(k, size=64)
    for y_obs in (None, y):
        loss64, g64, _ = backward(x, with_dtype(params, np.float64), None, y_obs=y_obs, eps=eps)
        loss32, g32, _ = backward(x, with_dtype(params, np.float32), None, y_obs=y_obs, eps=eps)
        assert g64.vector.dtype == np.float64 and g32.vector.dtype == np.float32
        assert abs(loss32 - loss64) <= LOSS_RTOL * abs(loss64), (loss32, loss64)
        diff = np.linalg.norm(g32.vector.astype(np.float64) - g64.vector)
        assert diff <= GRAD_RTOL * np.linalg.norm(g64.vector), diff / np.linalg.norm(g64.vector)


def _float_arrays(obj):
    """Every float array reachable from a forward cache."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind == "f" else []
    if isinstance(obj, FlatBuffers):
        return [obj.vector]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _float_arrays(item)]
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _float_arrays(getattr(obj, f.name))]
    return []


@pytest.mark.parametrize("constrained", [False, True])
def test_float32_step_holds_only_float32_arrays(constrained):
    params = with_dtype(tiny_params(seed=4), np.float32)
    master = params.vector
    x = random_inputs(5, 6)
    eps = draw_eps(params, 5, RngState(4, (62,)))
    y = np.array([0, 2, 1, 1, 0]) if constrained else None
    cache, y, _ = model._run_forward(x, params, None, eps, y)
    arrays = _float_arrays(cache)
    assert len(arrays) >= 15
    assert all(a.dtype == np.float32 for a in arrays), {a.dtype for a in arrays}
    bufs = params.step_buffers
    assert all(a.dtype == np.float32 for a in (*bufs.acts, bufs.out, bufs.scratch))
    assert cache.w is bufs.shadow and np.array_equal(cache.w.vector, master.astype(np.float32))

    loss, grads = model._backward(params, cache, y)
    # the one gradient vector adam_step reads is float32, and every gradient is a view of it
    assert grads.vector.dtype == np.float32
    assert all(np.shares_memory(g, grads.vector) for _, g in grads.buffers())
    assert params.vector is master and master.dtype == np.float64
    assert isinstance(loss, float)


def test_float64_step_reads_the_parameters_themselves():
    params = tiny_params(seed=5)
    x = random_inputs(3, 6)
    cache, _, _ = model._run_forward(x, params, None, draw_eps(params, 3, RngState(5, (63,))))
    assert cache.w is params and params.step_buffers.shadow is None
    assert all(a.dtype == np.float64 for a in _float_arrays(cache))


def test_step_buffers_are_made_again_for_a_new_compute_dtype():
    params = tiny_params(seed=6, k=2)
    x = random_inputs(4, 6)
    eps = draw_eps(params, 4, RngState(6, (64,)))
    bufs = params.step_buffers
    backward(x, params, None, eps=eps)
    first = bufs.out
    backward(x, with_dtype(params, np.float32), None, eps=eps)
    assert bufs.out is not first and bufs.out.dtype == np.float32 and bufs.dtype == np.float32
    kept = bufs.out
    backward(x, params, None, eps=eps)
    assert bufs.out is kept
    assert params.clone().compute_dtype == np.float32



def test_adam_keeps_the_shadow_so_no_step_copies_it(monkeypatch):
    params = with_dtype(tiny_params(seed=9, k=2), np.float32)
    x, rng, state = random_inputs(4, 6), RngState(9, (66,)), AdamState()
    copies = []
    real_copyto = np.copyto

    def counting_copyto(dst, src, **kw):
        copies.append(dst)
        real_copyto(dst, src, **kw)
    monkeypatch.setattr(np, "copyto", counting_copyto)
    start = params.vector.copy()
    for _ in range(4):
        _, grads, _ = backward(x, params, rng)
        adam_step(params, grads, state)
    shadow = params.step_buffers.shadow
    cache, _, _ = model._run_forward(x, params, rng, None)
    assert cache.w is shadow and params.step_buffers.mirrored
    # one copy, when the first backward made the block; Adam wrote the rest
    assert [dst is shadow.vector for dst in copies] == [True]
    assert not np.array_equal(params.vector, start)
    assert np.array_equal(shadow.vector, params.vector.astype(np.float32))


def test_a_buffer_written_by_name_reaches_the_next_loss():
    params = with_dtype(tiny_params(seed=10), np.float32)
    x, eps = random_inputs(4, 6), draw_eps(params, 4, RngState(10, (67,)))
    backward(x, params, None, eps=eps)
    params["lat_b"] = params["lat_b"] + 0.25
    assert not params.step_buffers.mirrored
    fresh = ModelParams(params.arch, params.k, params.vector.copy(), np.float32)
    loss, grads, _ = backward(x, params, None, eps=eps)
    fresh_loss, fresh_grads, _ = backward(x, fresh, None, eps=eps)
    assert loss == fresh_loss
    assert np.array_equal(grads.vector.view(np.uint32), fresh_grads.vector.view(np.uint32))


def test_finite_differences_of_a_float32_clone_see_every_perturbation():
    params = with_dtype(tiny_params(seed=12), np.float32)
    x, eps = random_inputs(3, 6), draw_eps(params, 3, RngState(12, (69,)))
    _, grads, _ = backward(x, params, None, eps=eps)
    losses = []

    def loss(trial):
        losses.append(forward_loss(x, trial, eps))
        return losses[-1]
    grad_rel_errors(params, grads, loss, h=1e-2)
    # a clone whose shadow missed the writes would give one loss throughout
    assert len(losses) == 2 * params.vector.size and len(set(losses)) > params.vector.size


def test_an_expansion_keeps_the_old_shadow_from_adam(monkeypatch):
    params = with_dtype(tiny_params(seed=11, k=2), np.float32)
    x = random_inputs(4, 6)
    eps = draw_eps(params, 4, RngState(11, (68,)))
    _, grads, _ = backward(x, params, None, eps=eps)
    adam_step(params, grads, AdamState())  # loads the compiled loop
    seen = []
    monkeypatch.setattr(adam, "_kernels", {
        dtype: lambda *args, fn=fn: (seen.append(args[4]), fn(*args))
        for dtype, fn in adam._kernels.items()})
    old = params.step_buffers.shadow
    old_bits = old.vector.copy()
    params.add_component_copy(1)
    n = params.vector.size
    assert old.vector.size < n
    adam_step(params, FlatBuffers(params.shapes, np.full(n, 0.5, np.float32)), AdamState())
    assert seen == [None] and np.array_equal(old.vector, old_bits)
    eps = draw_eps(params, 4, RngState(11, (70,)))
    cache, _, _ = model._run_forward(x, params, None, eps)
    shadow = params.step_buffers.shadow
    assert cache.w is shadow and shadow is not old and shadow.vector.size == n
    assert np.array_equal(shadow.vector, params.vector.astype(np.float32))
    _, grads, _ = backward(x, params, None, eps=eps)
    adam_step(params, grads, AdamState())
    assert seen == [None, shadow.vector.ctypes.data]
    assert np.array_equal(shadow.vector, params.vector.astype(np.float32))


def _random_784(path, seed, n_per_class, n_classes=4):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    images = rng.uniform(0.0, 1.0, (labels.size, 784))
    save_matrix_dataset(path, Dataset(images, labels, n_classes=n_classes, image_hw=(28, 28)))


def test_full_scale_preset_trains_in_float32_end_to_end(tmp_path):
    _random_784(tmp_path / "train.mvds", 0, 40)
    _random_784(tmp_path / "test.mvds", 1, 10)
    outputs = []
    for tag in ("a", "b"):
        cfg = apply_overrides(load_preset("mnist-seq-smgr-fixedT"), [
            "data.source=matrix", f"data.dir={tmp_path}", "data.n_valid=0",
            "stream.total_steps=12", "replay.snapshot_period=4",
            f"out_dir={tmp_path}/{tag}"])
        assert cfg.arch.compute_dtype == "float32"
        result = run_train(cfg)
        assert result.snapshot_steps == [3, 7, 11]
        rows = Path(result.metrics_path).read_text().splitlines()[1:]
        assert len(rows) == 1
        assert all(np.isfinite(float(v)) for v in rows[0].split(",")[1:9])
        loaded = load_checkpoint(result.checkpoint_path)
        assert loaded.params.vector.dtype == np.float64
        assert np.array_equal(loaded.params.vector, result.params.vector)
        assert loaded.adam.m.vector.dtype == loaded.adam.v.vector.dtype == np.float64
        names = sorted(os.listdir(result.out_dir))
        outputs.append({n: Path(result.out_dir, n).read_bytes()
                        for n in names if n != "config.txt"})
    assert outputs[0] == outputs[1]


def test_adam_widens_a_float32_gradient_exactly():
    # a float32 gradient updates p, m and v to the bits of its float64 widening
    rng = np.random.default_rng(7)
    n = 65539
    g32 = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, n)).astype(np.float32)
    p0 = rng.standard_normal(n)
    finals = []
    for g in (g32, g32.astype(np.float64)):
        params, state = FlatBuffers({"w": (n,)}, p0.copy()), AdamState()
        for _ in range(3):
            adam_step(params, FlatBuffers({"w": (n,)}, g), state)
        finals.append((params.vector, state.m.vector, state.v.vector))
    assert all(a.dtype == np.float64 and np.array_equal(a, b) for a, b in zip(*finals))
