import ctypes
import math

import numpy as np
import pytest

import reference_forms as ref
from conftest import random_inputs, tiny_params
from mixvae.errors import ShapeError
from mixvae.kernels import softplus
from mixvae.model import (
    BERNOULLI_EPS,
    SIGMA_FLOOR,
    ModelParams,
    apply_memory_policy,
    backward,
    component_posterior_params,
    decode,
    draw_eps,
    elbo,
    encode_shared,
    infer_task_posterior,
    init_params,
    param_spec,
    supervised_elbo,
)
from mixvae.rng import RngState
from mixvae.train import relu_margin


class TestEncodeShared:
    def test_zero_weights_zero_input(self):
        params = tiny_params(spread_biases=False)
        for w, _ in params.layers["enc"]:
            params[w][:] = 0.0
        assert np.array_equal(encode_shared(np.zeros(6), params), np.zeros(4))

    def test_deterministic(self):
        params = tiny_params()
        x = random_inputs(1, 6)[0]
        assert np.array_equal(encode_shared(x, params), encode_shared(x, params))

    def test_single_layer_identity_weights_is_relu(self):
        from mixvae.model import Architecture, ModelParams
        arch = Architecture(input_dim=3, encoder=(3,), n_z=2, decoder=(4,), k_max=2)
        params = init_params(arch, RngState(0, (1,)), k_init=1)
        params["enc_w.0"][:] = np.eye(3)
        params["enc_b.0"][:] = 0.0
        x = np.array([0.5, 0.0, 0.9])
        assert np.allclose(encode_shared(x, params), np.maximum(x, 0.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            encode_shared(np.zeros(7), tiny_params())


class TestTaskPosterior:
    def test_k1_is_certain(self):
        params = tiny_params(k=1)
        h = encode_shared(random_inputs(1, 6)[0], params)
        assert np.allclose(infer_task_posterior(h, params), [1.0])

    def test_equal_logits_uniform(self):
        params = tiny_params(k=4, k_max=4)
        params["task_w"][:] = 0.0
        params["task_b"][:] = 2.5
        h = encode_shared(random_inputs(1, 6)[0], params)
        assert np.allclose(infer_task_posterior(h, params), 0.25, atol=1e-12)

    def test_duplicated_row_splits_mass(self):
        # oracle: compute softmax by hand on the duplicated-logit vector
        params = tiny_params(k=3)
        x = random_inputs(1, 6)[0]
        h = encode_shared(x, params)
        q_before = infer_task_posterior(h, params)
        k_star = 1
        params.add_component_copy(k_star)
        q_after = infer_task_posterior(h, params)
        logits = h @ params["task_w"].T + params["task_b"]
        assert np.allclose(q_after, np.exp(ref.log_softmax(logits)), atol=1e-12)
        expected_split = q_before[k_star] / (1.0 + q_before[k_star])
        assert q_after[k_star] == pytest.approx(expected_split, abs=1e-12)
        assert q_after[3] == pytest.approx(expected_split, abs=1e-12)
        assert np.allclose(q_after[[0, 2]], q_before[[0, 2]] / (1.0 + q_before[k_star]),
                           atol=1e-12)


class TestPosteriorAndPriorParams:
    def test_zero_head_gives_softplus_zero(self):
        params = tiny_params(spread_biases=False)
        params["lat_w"][:] = 0.0
        params["lat_b"][:] = 0.0
        h = encode_shared(random_inputs(1, 6)[0], params)
        mu, sig = component_posterior_params(h, 0, params)
        assert np.allclose(mu, 0.0)
        assert np.allclose(sig, math.log(2) + SIGMA_FLOOR)

    def test_sigma_strictly_positive_many_draws(self):
        params = tiny_params()
        xs = random_inputs(200, 6)
        h = encode_shared(xs, params)
        for k in range(params.k):
            _, sig = component_posterior_params(h, k, params)
            assert np.all(sig > 0)

    def test_index_error(self):
        params = tiny_params(k=3)
        h = encode_shared(random_inputs(1, 6)[0], params)
        with pytest.raises(IndexError):
            component_posterior_params(h, 3, params)

    def test_fresh_prior_rho_zero(self):
        params = tiny_params(spread_biases=False)
        mu, sig = ref.prior_params(0, params)
        assert np.allclose(mu, 0.0)
        assert np.allclose(sig, math.log(2) + SIGMA_FLOOR)

    def test_prior_rows_copied_on_expansion(self):
        params = tiny_params(k=2)
        params.add_component_copy(1)
        assert np.array_equal(params["prior_mu"][1], params["prior_mu"][2])
        assert np.array_equal(params["prior_rho"][1], params["prior_rho"][2])

    def test_row_lookup_matches_onehot_linear_layer(self):
        # oracle: explicit one-hot times table formulation
        params = tiny_params(k=3)
        for k in range(3):
            onehot = np.zeros(3)
            onehot[k] = 1.0
            mu_oracle = onehot @ params["prior_mu"]
            sig_oracle = softplus(onehot @ params["prior_rho"]) + SIGMA_FLOOR
            mu, sig = ref.prior_params(k, params)
            assert np.allclose(mu, mu_oracle, atol=1e-15)
            assert np.allclose(sig, sig_oracle, atol=1e-15)


class TestClone:
    def test_equal_and_independent(self):
        params = tiny_params(k=2)
        twin = params.clone()
        assert twin.k == params.k and twin.arch == params.arch
        for (name, a), (_, b) in zip(params.buffers(), twin.buffers()):
            assert np.array_equal(a, b) and a.strides == b.strides, name
            b += 1.0
            assert not np.array_equal(a, b), name
        twin["enc_w.0"][:] = 0.0
        assert np.any(params["enc_w.0"] != 0)


class TestRegistry:
    @pytest.mark.parametrize("k", [0, 5])
    def test_k_outside_capacity(self, k):
        with pytest.raises(ShapeError):
            ModelParams(tiny_params().arch, k)

    def test_add_component_appends_exactly_the_per_component_rows(self):
        params = tiny_params(k=2)
        before = {name: buf.copy() for name, buf in params.buffers()}
        params.add_component_copy(1)
        assert params.k == 3
        for name, _, per_component in param_spec(params.arch, params.k):
            if per_component:
                expected = np.concatenate([before[name], before[name][1:2]])
            else:
                expected = before[name]
            assert np.array_equal(params[name], expected), name


class TestFlatLayout:
    def test_views_tile_the_vector_in_registry_order(self):
        params = tiny_params(k=3)
        start = 0
        for (name, shape, _), (got, buf) in zip(param_spec(params.arch, params.k),
                                                params.buffers(), strict=True):
            assert got == name and buf.shape == shape
            assert np.shares_memory(buf, params.vector)
            assert buf.ctypes.data == params.vector[start:].ctypes.data, name
            start += buf.size
        assert start == params.vector.size

    def test_write_through_a_view_reaches_the_vector(self):
        params = tiny_params(k=2)
        params.vector[:] = 0.0
        params["lat_b"][1, 0] = 7.5
        offset = (params["lat_b"][1:].ctypes.data - params.vector.ctypes.data) // 8
        assert np.flatnonzero(params.vector).tolist() == [offset]
        params["prior_rho"] = -1.0  # assignment copies into the view
        assert params.vector.sum() == 7.5 - params["prior_rho"].size
        grown = params.clone()
        grown.add_component_copy(1)
        assert grown["lat_b"][2, 0] == 7.5 and np.shares_memory(grown["lat_b"], grown.vector)

    def test_clone_shares_no_memory(self):
        params = tiny_params(k=2)
        twin = params.clone()
        assert not np.shares_memory(twin.vector, params.vector)
        assert np.array_equal(twin.vector, params.vector)

    def test_gradients_share_the_layout_and_never_alias(self):
        # the gradients are the step buffers' vector: in the parameters'
        # layout and the compute dtype, apart from the parameters, the shadow
        # and a clone's gradients, and rewritten by the next backward
        for dtype in (np.float64, np.float32):
            params = tiny_params(k=3)
            params.compute_dtype = np.dtype(dtype)
            twin = params.clone()
            x = random_inputs(2, 6)
            eps1, eps2 = (draw_eps(params, 2, RngState(seed, (18,))) for seed in (3, 4))
            _, g1, _ = backward(x, params, None, eps=eps1)
            first = g1.vector.copy()
            _, g_twin, _ = backward(x, twin, None, eps=eps1)
            assert g1.shapes == g_twin.shapes == params.shapes
            assert g1.vector.dtype == dtype and g1.vector.size == params.vector.size
            shadow = params.step_buffers.shadow
            assert (shadow is None) == (dtype == np.float64)
            for other in (params.vector, twin.vector, g_twin.vector,
                          *([] if shadow is None else [shadow.vector])):
                assert not np.shares_memory(g1.vector, other)
            assert np.array_equal(g_twin.vector, first)

            _, g2, _ = backward(x, params, None, eps=eps2)
            assert g2.vector is g1.vector and np.array_equal(g_twin.vector, first)
            _, want, _ = backward(x, twin, None, eps=eps2)
            assert np.array_equal(g2.vector, want.vector)
            assert not np.array_equal(g2.vector, first)


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]


_mallinfo2 = getattr(ctypes.CDLL(None), "mallinfo2", None)


@pytest.mark.skipif(_mallinfo2 is None, reason="needs glibc's mallinfo2")
def test_memory_policy_maps_every_large_array_of_its_own():
    _mallinfo2.restype = _Mallinfo2
    apply_memory_policy()
    # Freeing a mapped block raises glibc's dynamic mmap threshold to its
    # size (at most 32 MiB), after which a 6 MiB array would come from the
    # heap; under the policy it is still a mapping of its own.
    np.empty(30 << 20, np.uint8)
    before = _mallinfo2().hblkhd
    block = np.empty(6 << 20, np.uint8)
    assert _mallinfo2().hblkhd - before >= block.nbytes


class TestDecode:
    def test_zero_weights_give_half(self):
        params = tiny_params(spread_biases=False)
        for w, b in params.layers["dec"]:
            params[w][:] = 0.0
            params[b][:] = 0.0
        out = decode(np.zeros(2), params)
        assert np.allclose(out, 0.5)

    def test_outputs_inside_unit_interval(self):
        params = tiny_params()
        z = RngState(2, (9,)).normal((50, 2)) * 5
        p = decode(z, params)
        assert np.all(p >= BERNOULLI_EPS)
        assert np.all(p <= 1 - BERNOULLI_EPS)

    def test_deterministic(self):
        params = tiny_params()
        z = np.array([0.3, -0.7])
        assert np.array_equal(decode(z, params), decode(z, params))


class TestBernoulliLogLikelihood:
    def test_uniform_closed_form(self):
        d = 8
        x = np.full(d, 0.5)
        assert ref.bernoulli_log_likelihood(x, x) == pytest.approx(d * math.log(0.5))

    def test_upper_bound_near_zero(self):
        x = np.ones(4)
        p = np.full(4, 1.0 - BERNOULLI_EPS)
        assert abs(ref.bernoulli_log_likelihood(x, p)) < 1e-5

    def test_hand_value(self):
        ll = ref.bernoulli_log_likelihood(np.array([1.0, 0.0]), np.array([0.9, 0.2]))
        assert ll == pytest.approx(math.log(0.9) + math.log(0.8), abs=1e-12)
        assert ll == pytest.approx(-0.32850, abs=1e-5)


class TestGaussianKl:
    def test_identical_is_zero(self):
        mu = np.array([1.0, -2.0])
        sig = np.array([0.5, 2.0])
        assert ref.gaussian_kl(mu, sig, mu, sig) == pytest.approx(0.0, abs=1e-15)

    def test_mean_shift_half(self):
        got = ref.gaussian_kl(np.zeros(1), np.ones(1), np.ones(1), np.ones(1))
        assert got == pytest.approx(0.5)

    def test_variance_ratio_closed_form(self):
        got = ref.gaussian_kl(np.zeros(1), np.array([2.0]), np.zeros(1), np.ones(1))
        assert got == pytest.approx(2.0 - 0.5 - math.log(2), abs=1e-12)
        assert got == pytest.approx(0.80685, abs=1e-5)

    def test_nonnegative_property(self):
        rng = RngState(3, (10,))
        for _ in range(500):
            q_mu, p_mu = rng.normal(3), rng.normal(3)
            q_sig, p_sig = np.exp(rng.normal(3)), np.exp(rng.normal(3))
            assert ref.gaussian_kl(q_mu, q_sig, p_mu, p_sig) >= 0


class TestElbo:
    def test_k1_matches_independent_vae_path(self):
        params = tiny_params(k=1)
        for i in range(50):
            x = random_inputs(1, 6, seed=100 + i)[0]
            eps = RngState(i, (11,)).normal(2)
            bd = elbo(x, params, None, eps=eps.reshape(1, 1, 2))
            assert bd.cat_kl == pytest.approx(0.0, abs=1e-15)
            oracle = ref.independent_single_vae_elbo(x, params, eps)
            assert bd.total == pytest.approx(oracle, abs=1e-10)

    def test_uniform_posterior_zero_cat_kl(self):
        params = tiny_params(k=3)
        params["task_w"][:] = 0.0
        params["task_b"][:] = 1.0
        x = random_inputs(1, 6)[0]
        bd = elbo(x, params, RngState(1, (12,)))
        assert bd.cat_kl == pytest.approx(0.0, abs=1e-12)

    def test_recomposition_invariant(self):
        params = tiny_params(k=3)
        xs = random_inputs(64, 6)
        bd = elbo(xs, params, RngState(2, (13,)))
        recomposed = np.sum(bd.task_posterior * (bd.recon_per_component
                                                 - bd.gauss_kl_per_component), axis=1) - bd.cat_kl
        assert np.allclose(recomposed, bd.total, atol=1e-9)

    def test_kl_terms_nonnegative(self):
        params = tiny_params(k=3)
        xs = random_inputs(256, 6, seed=77)
        bd = elbo(xs, params, RngState(3, (14,)))
        assert np.all(bd.gauss_kl_per_component >= 0)
        assert np.all(bd.cat_kl >= -1e-15)

    def test_bias_shift_leaves_posterior_and_total(self):
        params = tiny_params(k=3)
        x = random_inputs(4, 6)
        eps = draw_eps(params, 4, RngState(4, (15,)))
        bd = elbo(x, params, None, eps=eps)
        shifted = params.clone()
        shifted["task_b"][:] += 7.3
        bd2 = elbo(x, shifted, None, eps=eps)
        assert np.allclose(bd.task_posterior, bd2.task_posterior, atol=1e-9)
        assert np.allclose(bd.total, bd2.total, atol=1e-9)


class TestSupervisedElbo:
    def test_k1_equals_marginal_total(self):
        params = tiny_params(k=1)
        x = random_inputs(1, 6)[0]
        eps = RngState(5, (16,)).normal((1, 1, 2))
        bd = elbo(x, params, None, eps=eps)
        sup = supervised_elbo(x, 0, params, None, eps=eps)
        assert sup == pytest.approx(bd.total, abs=1e-12)

    def test_one_hot_posterior_identity(self):
        # algebraic identity: with q(y|x) one-hot at y_obs,
        # supervised = marginal total + ln K
        params = tiny_params(k=3)
        y_obs = 2
        params["task_b"][y_obs] += 500.0
        x = random_inputs(1, 6)[0]
        eps = RngState(6, (17,)).normal((1, 3, 2))
        bd = elbo(x, params, None, eps=eps)
        sup = supervised_elbo(x, y_obs, params, None, eps=eps)
        assert sup == pytest.approx(bd.total + math.log(3), abs=1e-6)

    def test_gradient_step_increases_observed_posterior(self):
        from mixvae.adam import AdamState, adam_step
        from mixvae.model import backward
        params = tiny_params(k=3, seed=11)
        x = random_inputs(2, 6)
        y = np.array([1, 1])
        eps = draw_eps(params, 2, RngState(7, (18,)))
        q_before = infer_task_posterior(encode_shared(x, params), params)[:, 1]
        _, grads, _ = backward(x, params, None, y_obs=y, eps=eps)
        adam_step(params, grads, AdamState(lr=1e-3))
        q_after = infer_task_posterior(encode_shared(x, params), params)[:, 1]
        assert np.all(q_after > q_before)

    def test_index_error(self):
        params = tiny_params(k=2)
        with pytest.raises(IndexError):
            supervised_elbo(random_inputs(1, 6)[0], 2, params, RngState(0, (19,)))


def _relu_layers_plain(params, x, eps):
    """(input, pre-activation) of every encoder layer and every decoder hidden
    layer, with the decoder run on all B*K latent rows."""
    h, enc = ref._relu_layers(x, params, params.layers["enc"])
    z = np.stack([mu + sig * eps[:, j] for j in range(params.k)
                  for mu, sig in [component_posterior_params(h, j, params)]], axis=1)
    _, dec = ref._relu_layers(z.reshape(-1, params.arch.n_z), params, params.layers["dec"][:-1])
    return enc + dec


class TestReluMargin:
    @pytest.mark.parametrize("k", [1, 3])
    def test_smallest_relu_input_over_every_layer_and_row(self, k):
        in_decoder = 0
        for seed in range(20):
            params = tiny_params(seed=seed, k=k)
            x = random_inputs(4, 6, seed=seed)
            eps = draw_eps(params, 4, RngState(seed, (43,)))
            mins = [np.min(np.abs(a)) for _, a in _relu_layers_plain(params, x, eps)]
            assert relu_margin(params, x, eps) == min(mins), seed
            n_enc = len(params.layers["enc"])
            in_decoder += min(mins[n_enc:]) < min(mins[:n_enc])
        assert in_decoder > 0  # some seeds put the margin in the decoder

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_decoder_input_at_3e_6(self, sign):
        # Unit 0 of the last decoder hidden layer gets weights of one sign,
        # scaled by a power of two so that its smallest |g @ w| over the
        # rows, s, lies in (1.5e-6, 3e-6]. The bias sign * 3e-6 - s is then
        # exact, so that row's input is exactly sign * 3e-6 and every other
        # row's lies further from zero.
        params = tiny_params(seed=7, k=3)
        x = random_inputs(4, 6, seed=7)
        eps = draw_eps(params, 4, RngState(7, (44,)))
        (w, bias), (g, _) = params.layers["dec"][-2], _relu_layers_plain(params, x, eps)[-1]
        params[w][0] = sign * np.abs(params[w][0])
        s = (g @ params[w].T)[:, 0]
        assert np.all(s != 0)
        params[w][0] *= 2.0 ** np.floor(np.log2(3e-6 / np.min(np.abs(s))))
        s = (g @ params[w].T)[:, 0]
        params[bias][0] = sign * 3e-6 - s[np.argmin(np.abs(s))]
        pre = np.concatenate([a.ravel() for _, a in _relu_layers_plain(params, x, eps)])
        assert np.count_nonzero(pre == sign * 3e-6) == 1
        assert np.min(np.abs(pre)) == 3e-6
        assert relu_margin(params, x, eps) == 3e-6
