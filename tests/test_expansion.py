import numpy as np
import pytest

from conftest import random_inputs, tiny_params
from mixvae.adam import AdamState, adam_step
from mixvae.errors import StateError
from mixvae.expansion import (
    ExpansionState,
    PoorSampleBuffer,
    add_component,
    expand,
    posterior_mass,
    screen_batch,
    select_parent,
    should_expand,
)
from mixvae.model import backward, encode_shared, infer_task_posterior, param_spec, supervised_elbo
from mixvae.replay import UsageCounts
from mixvae.rng import RngState


class TestScreening:
    def test_above_threshold_not_stored(self):
        buf = PoorSampleBuffer(capacity=10, threshold=-200.0, max_age=100)
        screen_batch(np.zeros((1, 4)), np.array([-150.0]), buf, step=0)
        assert len(buf) == 0

    def test_below_threshold_stored(self):
        buf = PoorSampleBuffer(capacity=10, threshold=-200.0, max_age=100)
        screen_batch(np.ones((1, 4)), np.array([-250.0]), buf, step=0)
        assert len(buf) == 1
        assert np.array_equal(buf.samples[0], np.ones(4))

    def test_capacity_respected(self):
        buf = PoorSampleBuffer(capacity=3, threshold=0.0, max_age=100)
        added = screen_batch(np.arange(20).reshape(5, 4), np.full(5, -1.0), buf, step=0)
        assert added == 3
        assert len(buf) == 3
        screen_batch(np.zeros((2, 4)), np.full(2, -1.0), buf, step=0)
        assert len(buf) == 3

    def test_stored_samples_satisfy_threshold_invariant(self):
        buf = PoorSampleBuffer(capacity=50, threshold=-5.0, max_age=100)
        rng = RngState(0, (50,))
        x, elbos = rng.normal((30, 4)), rng.normal(30) * 10
        screen_batch(x, elbos, buf, step=0)
        assert np.array_equal(buf.as_matrix(), x[elbos < buf.threshold])

    def test_monotone_in_threshold(self):
        # pointwise screening: a looser threshold stores a superset
        rng = RngState(1, (51,))
        x = rng.normal((40, 4))
        elbos = rng.normal(40) * 10
        sizes = []
        for thr in (-15.0, -5.0, 5.0):
            buf = PoorSampleBuffer(capacity=100, threshold=thr, max_age=100)
            screen_batch(x, elbos, buf, step=0)
            sizes.append(len(buf))
        assert sizes == sorted(sizes)

    def test_samples_expire_after_max_age(self):
        buf = PoorSampleBuffer(capacity=10, threshold=0.0, max_age=3)
        screen_batch(np.zeros((2, 4)), np.full(2, -1.0), buf, step=0)
        screen_batch(np.ones((1, 4)), np.full(1, -1.0), buf, step=2)
        assert buf.steps == [0, 0, 2]
        screen_batch(np.ones((1, 4)), np.full(1, 1.0), buf, step=3)  # nothing stored
        assert buf.steps == [2]
        assert len(buf) == 1
        assert np.array_equal(buf.samples[0], np.ones(4))

    def test_slow_trickle_fills_only_within_max_age(self):
        # one poor sample per step: a 5-slot buffer fills once samples live
        # 5 steps, and never when they expire after 4
        short, long = PoorSampleBuffer(5, 0.0, max_age=4), PoorSampleBuffer(5, 0.0, max_age=5)
        for step in range(50):
            for buf in (short, long):
                if not buf.full:
                    screen_batch(np.zeros((1, 4)), np.array([-1.0]), buf, step=step)
        assert len(short) == 4
        assert long.full

    def test_burst_fills_with_expiry(self):
        buf = PoorSampleBuffer(5, 0.0, max_age=4)
        screen_batch(np.zeros((3, 4)), np.full(3, -1.0), buf, step=10)
        screen_batch(np.zeros((3, 4)), np.full(3, -1.0), buf, step=13)
        assert buf.full

    def test_bad_max_age_rejected(self):
        with pytest.raises(ValueError):
            PoorSampleBuffer(5, 0.0, max_age=0)


class TestShouldExpand:
    def make(self, fill, consolidated, k=2, k_max=4):
        buf = PoorSampleBuffer(capacity=4, threshold=0.0, max_age=100)
        screen_batch(np.zeros((fill, 6)), np.full(fill, -1.0), buf, step=0)
        state = ExpansionState(consolidation_period=100)
        state.steps_since_last_expansion = 100 if consolidated else 50
        params = tiny_params(k=k, k_max=k_max)
        return buf, state, params

    def test_all_conditions_met(self):
        assert should_expand(*self.make(fill=4, consolidated=True))

    def test_partial_buffer(self):
        assert not should_expand(*self.make(fill=3, consolidated=True))

    def test_consolidation_gate(self):
        assert not should_expand(*self.make(fill=4, consolidated=False))

    def test_capacity_gate(self):
        assert not should_expand(*self.make(fill=4, consolidated=True, k=4, k_max=4))


class TestSelectParent:
    def test_single_component(self):
        params = tiny_params(k=1)
        buf = PoorSampleBuffer(capacity=4, threshold=0.0, max_age=100)
        screen_batch(random_inputs(4, 6), np.full(4, -1.0), buf, step=0)
        assert select_parent(buf, params) == 0

    def test_matches_bruteforce_posterior_sum(self):
        for seed in range(20):
            params = tiny_params(seed=seed)
            buf = PoorSampleBuffer(capacity=8, threshold=0.0, max_age=100)
            screen_batch(random_inputs(8, 6, seed=seed + 200), np.full(8, -1.0), buf, step=0)
            # oracle: accumulate per-sample posteriors one by one
            sums = np.zeros(params.k)
            for x in buf.samples:
                sums += infer_task_posterior(encode_shared(x, params), params)
            assert select_parent(buf, params) == int(np.argmax(sums))

    def test_tie_goes_to_lowest_index(self):
        params = tiny_params(k=3)
        params["task_w"][:] = 0.0
        params["task_b"][:] = 0.0  # exactly uniform posterior
        buf = PoorSampleBuffer(capacity=4, threshold=0.0, max_age=100)
        screen_batch(random_inputs(4, 6), np.full(4, -1.0), buf, step=0)
        assert select_parent(buf, params) == 0

    def test_known_mass_split(self):
        # input-independent posterior [0.64, 0.36] -> sums 3.2 vs 1.8 over 5 samples
        params = tiny_params(k=2)
        params["task_w"][:] = 0.0
        params["task_b"][:] = np.log([0.64, 0.36])
        buf = PoorSampleBuffer(capacity=5, threshold=0.0, max_age=100)
        screen_batch(random_inputs(5, 6), np.full(5, -1.0), buf, step=0)
        mass = posterior_mass(buf.as_matrix(), params)
        assert np.allclose(mass, [3.2, 1.8], atol=1e-9)
        assert select_parent(buf, params) == 0

    def test_empty_buffer_rejected(self):
        with pytest.raises(StateError):
            select_parent(PoorSampleBuffer(4, 0.0, max_age=100), tiny_params())


class TestExpand:
    def setup_ready(self, seed=0, k=2):
        params = tiny_params(seed=seed, k=k)
        adam = AdamState(lr=1e-3)
        # warm the optimizer so accumulator growth is exercised
        x = random_inputs(4, 6, seed=seed + 300)
        _, grads, _ = backward(x, params, RngState(seed, (52,)))
        adam_step(params, grads, adam)
        buf = PoorSampleBuffer(capacity=16, threshold=0.0, max_age=100)
        screen_batch(random_inputs(16, 6, seed=seed + 400), np.full(16, -1.0), buf, step=0)
        state = ExpansionState(consolidation_period=10, finetune_iters=20, finetune_batch=8)
        state.steps_since_last_expansion = 10
        return params, adam, buf, state

    def test_copy_semantics_bit_equal_before_finetune(self):
        params, adam, buf, state = self.setup_ready()
        parent = select_parent(buf, params)
        probe = params.clone()
        probe.add_component_copy(parent)
        for name in ("task_w", "task_b", "lat_w", "lat_b", "prior_mu", "prior_rho"):
            buf_arr = probe[name]
            assert np.array_equal(buf_arr[parent], buf_arr[-1]), name

    def test_k_increments_and_state_resets(self):
        params, adam, buf, state = self.setup_ready()
        k_before = params.k
        usage = UsageCounts(params.k)
        expand(params, adam, usage, buf, state, RngState(0, (53,)), step=123)
        assert params.k == k_before + 1
        assert usage.accumulated.shape == (params.k,)
        assert len(buf) == 0
        assert state.steps_since_last_expansion == 0
        assert state.expansion_log == [(123, state.expansion_log[0][1], params.k)]
        assert adam.m["task_w"].shape == params["task_w"].shape

    def test_add_component_grows_params_and_moments_by_one_row(self):
        params, adam, _, state = self.setup_ready(k=2)
        assert np.any(adam.m.vector) and np.any(adam.v.vector)
        before = [{n: a.copy() for n, a in bufs.items()} for bufs in (params, adam.m, adam.v)]
        parent = 0
        add_component(params, adam, UsageCounts(params.k), state, parent, step=7)
        assert params.k == 3 and adam.m.shapes == adam.v.shapes == params.shapes
        for name, _, per_component in param_spec(params.arch, params.k):
            for old, new in zip(before, (params, adam.m, adam.v)):
                kept = new[name][:-1] if per_component else new[name]
                assert kept.tobytes() == old[name].tobytes(), name
            if per_component:
                assert params[name][-1].tobytes() == before[0][name][parent].tobytes(), name
                for moments in (adam.m, adam.v):
                    assert moments[name][-1].tobytes() == bytes(moments[name][-1].nbytes), name

    def test_add_component_leaves_an_unstepped_optimizer_without_moments(self):
        params, _, _, state = self.setup_ready(k=2)
        adam = AdamState()
        add_component(params, adam, UsageCounts(params.k), state, 1, step=7)
        assert params.k == 3 and len(adam.m) == len(adam.v) == 0

    def test_finetune_improves_constrained_objective_on_buffer(self):
        params, adam, buf, state = self.setup_ready(seed=2)
        data = buf.as_matrix()
        parent = select_parent(buf, params)
        probe = params.clone()
        probe.add_component_copy(parent)
        new_label = probe.k - 1
        eps_rng = RngState(9, (54,))
        eps = eps_rng.normal((len(data), probe.k, 2))
        before = float(np.mean(supervised_elbo(data, np.full(len(data), new_label),
                                               probe, None, eps=eps)))
        expand(params, adam, UsageCounts(params.k), buf, state, RngState(0, (55,)), step=0)
        after = float(np.mean(supervised_elbo(data, np.full(len(data), new_label),
                                              params, None, eps=eps)))
        assert after >= before

    def record_finetune(self, monkeypatch):
        import mixvae.expansion as expansion
        calls = []
        real = expansion.backward

        def recording(x, params, rng, y_obs=None, eps=None):
            calls.append((x.copy(), np.array(y_obs), params.k))
            return real(x, params, rng, y_obs=y_obs, eps=eps)
        monkeypatch.setattr(expansion, "backward", recording)
        return calls

    def test_finetune_without_replay_sees_only_buffer(self, monkeypatch):
        import mixvae.expansion as expansion
        params, adam, buf, state = self.setup_ready()
        rows = {tuple(r) for r in buf.as_matrix()}
        calls = self.record_finetune(monkeypatch)
        monkeypatch.setattr(expansion, "generate", None)  # must not be called
        expand(params, adam, UsageCounts(params.k), buf, state, RngState(0, (59,)), step=0)
        assert len(calls) == state.finetune_iters
        for x, y, k in calls:
            assert len(x) == state.finetune_batch
            assert np.all(y == k - 1)
            assert all(tuple(r) in rows for r in x)

    def test_finetune_with_replay_adds_labelled_counter_examples(self, monkeypatch):
        # half of each minibatch is buffer samples labelled with the new
        # component; the other half is generated by the pre-expansion model
        # and labelled with the old component each sample was drawn from
        params, adam, buf, state = self.setup_ready(k=3)
        rows = {tuple(r) for r in buf.as_matrix()}
        calls = self.record_finetune(monkeypatch)
        prior = np.array([0.0, 0.25, 0.75])
        expand(params, adam, UsageCounts(params.k), buf, state, RngState(0, (60,)), step=0,
               replay_prior=prior)
        half = state.finetune_batch // 2
        gen_labels = []
        for x, y, k in calls:
            assert k == 4
            assert np.all(y[:half] == 3)
            assert all(tuple(r) in rows for r in x[:half])
            assert not any(tuple(r) in rows for r in x[half:])
            gen_labels.append(y[half:])
        gen_labels = np.concatenate(gen_labels)
        assert set(np.unique(gen_labels)) == {1, 2}

    def test_parent_keeps_its_own_samples(self):
        # a K=1 model expands to K=2 on one blob class. With counter-examples
        # the parent keeps most of the q(y|x) mass on its own generated
        # samples, more than after a finetune on the buffer alone, while the
        # new component still takes the buffer.
        from mixvae.data import make_blob_dataset
        from mixvae.model import Architecture, generate, init_params
        ds = make_blob_dataset(64, RngState(3, (61,)))
        q_parent, q_new = {}, {}
        for replay_prior in (None, np.array([1.0])):
            arch = Architecture(input_dim=16, encoder=(16,), n_z=2, decoder=(16,), k_max=3)
            params = init_params(arch, RngState(0, (62,)), k_init=1)
            buf = PoorSampleBuffer(capacity=32, threshold=0.0, max_age=100)
            screen_batch(ds.images[ds.labels == 1][:32], np.full(32, -1.0), buf, step=0)
            state = ExpansionState(consolidation_period=0, finetune_iters=50, finetune_batch=16)
            x_own, _ = generate(params, np.array([1.0]), 200, RngState(1, (63,)))
            x_buf = buf.as_matrix()
            expand(params, AdamState(lr=1e-2), UsageCounts(1), buf, state, RngState(2, (64,)),
                   step=0, replay_prior=replay_prior)
            key = replay_prior is not None
            q_parent[key] = infer_task_posterior(encode_shared(x_own, params), params)[:, 0].mean()
            q_new[key] = infer_task_posterior(encode_shared(x_buf, params), params)[:, 1].mean()
        assert q_parent[True] > 0.5 and q_new[True] > 0.5
        assert q_parent[True] > q_parent[False]

    def test_rejected_when_not_ready(self):
        params, adam, buf, state = self.setup_ready()
        state.steps_since_last_expansion = 0
        with pytest.raises(StateError):
            expand(params, adam, UsageCounts(params.k), buf, state, RngState(0, (56,)), step=0)

    def test_structural_invariants_after_expansions(self):
        params, adam, buf, state = self.setup_ready()
        expand(params, adam, UsageCounts(params.k), buf, state, RngState(1, (57,)), step=1)
        screen_batch(random_inputs(16, 6, seed=500), np.full(16, -1.0), buf, step=0)
        state.steps_since_last_expansion = 10
        expand(params, adam, UsageCounts(params.k), buf, state, RngState(2, (58,)), step=2)
        assert [(name, buf.shape) for name, buf in params.buffers()] == [
            (name, shape) for name, shape, _ in param_spec(params.arch, params.k)]
        assert params.k == 4
        assert len(state.expansion_log) == 2
