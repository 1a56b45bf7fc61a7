import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_inputs, tiny_params
from mixvae.adam import AdamState, adam_step
from mixvae.model import Architecture, ModelParams, backward, generate, param_spec
from mixvae.replay import Snapshot, UsageCounts, replay_step, take_snapshot
from mixvae.rng import RngState


class TestUsageCounts:
    def test_single_uniform_batch(self):
        counts = UsageCounts(4)
        counts.update(np.full((8, 4), 0.25))
        assert np.allclose(counts.accumulated, 0.25)
        assert counts.total_batches == 1

    def test_additivity(self):
        counts = UsageCounts(3)
        q = np.tile(np.array([0.5, 0.3, 0.2]), (4, 1))
        counts.update(q)
        counts.update(q)
        assert np.allclose(counts.accumulated, [1.0, 0.6, 0.4])

    def test_prior_normalized(self):
        counts = UsageCounts(3)
        rng = RngState(0, (60,))
        for _ in range(50):
            logits = rng.normal((16, 3))
            q = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            counts.update(q)
        assert abs(counts.prior().sum() - 1.0) < 1e-9
        assert abs(counts.accumulated.sum() - counts.total_batches) < 1e-6

    def test_uniform_prior_before_any_batch(self):
        assert np.allclose(UsageCounts(5).prior(), 0.2)

    def test_bad_rows_rejected(self):
        counts = UsageCounts(3)
        with pytest.raises(ValueError):
            counts.update(np.full((2, 3), 0.4))

    @pytest.mark.parametrize("excess, accepted", [(1.0e-5, True), (-1.0e-5, True),
                                                  (2e-5, False), (-2e-5, False),
                                                  (np.nan, False), (np.inf, False)])
    def test_row_sum_tolerance_is_allcloses(self, excess, accepted):
        # one row summing to 1 + excess, judged as np.allclose(sums, 1, atol=1e-6) judges it
        q = np.full((3, 2), 0.5)
        q[1, 0] += excess
        assert bool(np.allclose(q.sum(axis=1), 1.0, atol=1e-6)) == accepted
        counts = UsageCounts(2)
        if accepted:
            counts.update(q)
            assert counts.total_batches == 1
        else:
            with pytest.raises(ValueError):
                counts.update(q)
            assert counts.total_batches == 0 and not np.any(counts.accumulated)

    def test_update_adds_the_bits_of_the_column_mean(self):
        counts = UsageCounts(4)
        want = np.zeros(4)
        rng = RngState(1, (61,))
        for batch in (1, 7, 64):
            logits = 5.0 * rng.normal((batch, 4))
            q = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
            counts.update(q)
            want += q.mean(axis=0)
        assert counts.accumulated.tobytes() == want.tobytes()

    def test_grow_pads_zeros(self):
        counts = UsageCounts(2)
        counts.update(np.full((4, 2), 0.5))
        counts.grow(4)
        assert np.array_equal(counts.accumulated[2:], [0.0, 0.0])


class TestSnapshot:
    def test_freeze_against_later_training(self):
        params = tiny_params()
        usage = UsageCounts(params.k)
        usage.update(np.full((8, 3), 1 / 3))
        snap = take_snapshot(params, usage, step=7)
        full = params.clone()
        x_before, y_before = generate(snap.params, snap.prior(), 32, RngState(3, (61,)))
        adam = AdamState()
        rng = RngState(4, (62,))
        for _ in range(50):
            _, grads, _ = backward(rng.uniform(0.05, 0.95, (8, 6)), params, rng)
            adam_step(params, grads, adam)
        x_after, y_after = generate(snap.params, snap.prior(), 32, RngState(3, (61,)))
        assert np.array_equal(x_before, x_after)
        assert np.array_equal(y_before, y_after)
        assert snap.step == 7
        # the generative copy samples the bits of the whole model at that step
        x_full, y_full = generate(full, usage.prior(), 32, RngState(3, (61,)))
        assert x_full.tobytes() == x_after.tobytes()
        assert np.array_equal(y_full, y_after)

    def test_copies_only_the_generative_tail_at_full_scale(self):
        # 784-1200-600-300-150 encoder, n_z 32, 500-500 decoder at K=25: the
        # prior rows and the decoder are the last 661,384 of 2,794,809 values
        arch = Architecture(784, (1200, 600, 300, 150), 32, (500, 500), k_max=25)
        spec = param_spec(arch, 25)
        names = [name for name, _, _ in spec]
        tail = names[names.index("prior_mu"):]
        assert tail == ["prior_mu", "prior_rho"] + [n for n in names if n.startswith("dec_")]
        n_tail = sum(math.prod(shape) for name, shape, _ in spec if name in tail)
        assert n_tail == 661_384
        params = ModelParams(arch, 25, np.arange(2_794_809, dtype=np.float64))
        usage = UsageCounts(25)
        usage.update(np.full((4, 25), 0.04))
        tracemalloc.start()
        try:
            snap = take_snapshot(params, usage, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n_tail + 64 * 1024
        assert list(snap.params) == tail
        assert not np.shares_memory(snap.params.vector, params.vector)
        assert np.array_equal(snap.params.vector, params.vector[-n_tail:])
        assert all(np.array_equal(snap.params[name], params[name]) for name in tail)

    def test_mutating_usage_after_snapshot(self):
        params = tiny_params()
        usage = UsageCounts(params.k)
        usage.update(np.full((4, 3), 1 / 3))
        snap = take_snapshot(params, usage, 0)
        usage.update(np.tile(np.array([1.0, 0.0, 0.0]), (4, 1)))
        assert np.allclose(snap.prior(), 1 / 3)


class TestReplayStep:
    def test_replay_prior_is_usage_not_uniform(self):
        params = tiny_params(k=3)
        usage = UsageCounts(3)
        usage.update(np.tile(np.array([0.8, 0.15, 0.05]), (16, 1)))
        snap = take_snapshot(params, usage, 0)
        _, y = generate(snap.params, snap.prior(), 10 ** 4, RngState(5, (63,)))
        freq = np.bincount(y, minlength=3) / 10 ** 4
        assert np.all(np.abs(freq - np.array([0.8, 0.15, 0.05])) < 0.02)

    def test_smgr_returns_labels_mgr_does_not(self):
        params = tiny_params(k=2)
        snap = Snapshot(params, UsageCounts(2), 0)
        x, y = replay_step(snap, 8, RngState(6, (64,)), smgr=True)
        assert y is not None and y.shape == (8,)
        x2, y2 = replay_step(snap, 8, RngState(6, (64,)), smgr=False)
        assert y2 is None
        assert np.array_equal(x, x2)
