import struct

import numpy as np
import pytest

from conftest import random_inputs, tiny_params
from mixvae.adam import AdamState, adam_step
from mixvae.checkpoint import load_checkpoint, save_checkpoint
from mixvae.errors import CheckpointError
from mixvae.model import backward, elbo
from mixvae.replay import UsageCounts
from mixvae.rng import ALGORITHM_ID, RngState


def trained_state(seed=0, steps=5):
    params = tiny_params(seed=seed)
    adam = AdamState(lr=3e-4)
    usage = UsageCounts(params.k)
    rng = RngState(seed, (40,))
    for _ in range(steps):
        x = rng.uniform(0.05, 0.95, (4, 6))
        _, grads, bd = backward(x, params, rng)
        adam_step(params, grads, adam)
        usage.update(bd.task_posterior)
    return params, adam, usage


def test_round_trip_bit_exact(tmp_path):
    params, adam, usage = trained_state()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, params, adam, usage, step=17)
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded.params, loaded.adam, loaded.usage, step=loaded.step)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_state_is_identical(tmp_path):
    params, adam, usage = trained_state(seed=3)
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, params, adam, usage, step=5)
    loaded = load_checkpoint(path)
    for (name, a), (_, b) in zip(params.buffers(), loaded.params.buffers()):
        assert np.array_equal(a, b), name
        assert np.array_equal(adam.m[name], loaded.adam.m[name])
        assert np.array_equal(adam.v[name], loaded.adam.v[name])
    assert loaded.adam.t == adam.t
    assert loaded.adam.lr == adam.lr
    assert np.array_equal(loaded.usage.accumulated, usage.accumulated)
    assert loaded.usage.total_batches == usage.total_batches
    assert loaded.step == 5
    assert not loaded.is_snapshot


def test_loaded_vectors_are_fresh_and_writable(tmp_path):
    params, adam, usage = trained_state(seed=2)
    path = tmp_path / "w.ckpt"
    save_checkpoint(path, params, adam, usage)
    loaded = load_checkpoint(path)
    vectors = (loaded.params.vector, loaded.adam.m.vector, loaded.adam.v.vector,
               loaded.usage.accumulated)
    for i, vector in enumerate(vectors):
        assert vector.flags.writeable
        assert not any(np.shares_memory(vector, other) for other in vectors[i + 1:])
    loaded.params["task_w"] += 1.0
    assert not np.array_equal(loaded.params["task_w"], params["task_w"])


def test_forward_pass_survives_round_trip(tmp_path):
    params, adam, usage = trained_state(seed=4)
    path = tmp_path / "d.ckpt"
    save_checkpoint(path, params, adam, usage)
    loaded = load_checkpoint(path)
    x = random_inputs(4, 6)
    eps = RngState(1, (41,)).normal((4, params.k, 2))
    before = elbo(x, params, None, eps=eps).total
    after = elbo(x, loaded.params, None, eps=eps).total
    assert np.array_equal(before, after)


def test_snapshot_flag(tmp_path):
    params, adam, usage = trained_state()
    path = tmp_path / "snap.ckpt"
    save_checkpoint(path, params, None, usage, step=9, snapshot=True)
    loaded = load_checkpoint(path)
    assert loaded.is_snapshot
    assert loaded.adam.t == 0


def test_training_continues_identically_after_reload(tmp_path):
    params, adam, usage = trained_state(seed=5)
    path = tmp_path / "resume.ckpt"
    save_checkpoint(path, params, adam, usage)
    loaded = load_checkpoint(path)
    x = random_inputs(4, 6, seed=9)
    eps = RngState(2, (42,)).normal((4, params.k, 2))
    _, g1, _ = backward(x, params, None, eps=eps)
    adam_step(params, g1, adam)
    _, g2, _ = backward(x, loaded.params, None, eps=eps)
    adam_step(loaded.params, g2, loaded.adam)
    for (name, a), (_, b) in zip(params.buffers(), loaded.params.buffers()):
        assert np.array_equal(a, b), name


def documented_layout(params, adam, usage, step, snapshot):
    """The file bytes, assembled field by field from the layout in checkpoint.py."""
    arch = params.arch
    parts = [b"MIXVAE\x01\x00", struct.pack("<I", 1), struct.pack("<I", int(snapshot)),
             ALGORITHM_ID.encode("ascii").ljust(16, b"\x00"),
             struct.pack("<dddd", adam.lr, adam.beta1, adam.beta2, adam.eps),
             struct.pack("<Q", adam.t), struct.pack("<Q", step),
             struct.pack("<IIII", params.k, arch.k_max, arch.n_z, arch.input_dim),
             struct.pack("<I", len(arch.encoder))]
    parts += [struct.pack("<I", n) for n in arch.encoder]
    parts.append(struct.pack("<I", len(arch.decoder)))
    parts += [struct.pack("<I", n) for n in arch.decoder]
    parts.append(struct.pack("<Q", usage.total_batches))
    floats = [buf for _, buf in params.buffers()]
    floats += [adam.m.get(name, np.zeros_like(buf)) for name, buf in params.buffers()]
    floats += [adam.v.get(name, np.zeros_like(buf)) for name, buf in params.buffers()]
    floats.append(usage.accumulated)
    for a in floats:
        parts += [struct.pack("<d", float(v)) for v in np.ravel(a)]
    return b"".join(parts)


@pytest.mark.parametrize("fresh_adam, snapshot", [(False, False), (True, True)])
def test_file_matches_documented_layout(tmp_path, fresh_adam, snapshot):
    params, adam, usage = trained_state(seed=3)
    if fresh_adam:
        adam = AdamState()  # no moments yet: written as zeros
    path = tmp_path / "layout.ckpt"
    save_checkpoint(path, params, adam, usage, step=123, snapshot=snapshot)
    assert path.read_bytes() == documented_layout(params, adam, usage, 123, snapshot)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMIXVAE" + b"\x00" * 100)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_file(tmp_path):
    params, adam, usage = trained_state()
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, params, adam, usage)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_wrong_rng_algorithm(tmp_path):
    params, adam, usage = trained_state()
    path = tmp_path / "r.ckpt"
    save_checkpoint(path, params, adam, usage)
    blob = bytearray(path.read_bytes())
    blob[16:32] = b"xorshift128\x00\x00\x00\x00\x00"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="algorithm"):
        load_checkpoint(path)
    blob[16] = 0xFF  # not ascii
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="algorithm"):
        load_checkpoint(path)


# Offsets of the u32 model-dimension fields in the header of a tiny_params
# checkpoint (encoder (5, 4), decoder (4, 5)), with the values written there.
HEADER_FIELDS = {"K": (80, 3), "K_max": (84, 4), "n_z": (88, 2), "D": (92, 6),
                 "n_enc": (96, 2), "encoder width": (100, 5), "n_dec": (108, 2),
                 "decoder width": (112, 4)}


@pytest.mark.parametrize("field, value", [
    ("K", 0), ("K", 5), ("K_max", 0), ("n_z", 0), ("D", 0), ("n_enc", 0),
    ("encoder width", 0), ("n_dec", 0), ("decoder width", 0)])
def test_bad_model_dims_rejected(tmp_path, field, value):
    params, adam, usage = trained_state()
    path = tmp_path / "dims.ckpt"
    save_checkpoint(path, params, adam, usage)
    blob = bytearray(path.read_bytes())
    offset, written = HEADER_FIELDS[field]
    assert struct.unpack_from("<I", blob, offset) == (written,)
    struct.pack_into("<I", blob, offset, value)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    params, adam, usage = trained_state()
    path = tmp_path / "long.ckpt"
    save_checkpoint(path, params, adam, usage)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="bytes after"):
        load_checkpoint(path)


def test_save_rejects_accumulators_of_another_shape(tmp_path):
    # a component added without growing the optimizer rows to match
    params, adam, usage = trained_state()
    params.add_component_copy(0)
    usage.grow(params.k)
    with pytest.raises(CheckpointError, match="task_w"):
        save_checkpoint(tmp_path / "stale.ckpt", params, adam, usage)


# Offsets of the f64 optimizer fields in the checkpoint head.
HEAD_FLOATS = {"lr": 32, "beta1": 40, "beta2": 48, "eps": 56}


@pytest.mark.parametrize("field, value", [
    ("lr", 0.0), ("lr", np.inf), ("lr", np.nan), ("beta1", 1.5), ("beta1", -0.1),
    ("beta2", 1.0), ("beta2", np.nan), ("eps", -1e-8), ("eps", 0.0), ("eps", np.inf)])
def test_optimizer_settings_outside_adams_rule_rejected(tmp_path, field, value):
    params, adam, usage = trained_state()
    path = tmp_path / "opt.ckpt"
    save_checkpoint(path, params, adam, usage)
    blob = bytearray(path.read_bytes())
    assert struct.unpack_from("<d", blob, HEAD_FLOATS[field]) == (getattr(adam, field),)
    struct.pack_into("<d", blob, HEAD_FLOATS[field], value)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"optimizer {field} must be"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field, buffer", [
    ("parameter", "enc_w.0"), ("parameter", "prior_rho"), ("Adam m", "task_w"),
    ("Adam v", "dec_b.2"), ("usage count", None)])
def test_non_finite_vector_value_rejected(tmp_path, field, buffer, value):
    params, adam, usage = trained_state()
    buffers = {"parameter": params, "Adam m": adam.m, "Adam v": adam.v}
    target = usage.accumulated if buffer is None else buffers[field][buffer]
    target.reshape(-1)[-1] = value
    path = tmp_path / "nonfinite.ckpt"
    save_checkpoint(path, params, adam, usage)
    with pytest.raises(CheckpointError, match=f"non-finite {field} value"):
        load_checkpoint(path)


@pytest.mark.parametrize("counts", [[0.0, 0.0, 0.0], [2.5, -0.5, 3.0], [-0.0, -1e-300, 0.0]])
def test_usage_counts_that_give_no_replay_prior_rejected(tmp_path, counts):
    # five counted batches whose counts are all 0 or hold a negative value
    params, adam, usage = trained_state()
    assert usage.total_batches == 5
    usage.accumulated[:] = counts
    path = tmp_path / "usage.ckpt"
    save_checkpoint(path, params, adam, usage)
    with pytest.raises(CheckpointError, match="usage counts"):
        load_checkpoint(path)


def test_all_zero_usage_counts_load_before_any_counted_batch(tmp_path):
    params, adam, _ = trained_state()
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(path, params, adam, UsageCounts(params.k))
    loaded = load_checkpoint(path)
    assert loaded.usage.total_batches == 0
    assert np.array_equal(loaded.usage.prior(), np.full(params.k, 1 / params.k))
