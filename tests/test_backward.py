import tracemalloc

import numpy as np
import pytest

import reference_forms as ref
from conftest import fd_check, forward_loss, random_inputs, tiny_params
from mixvae import model
from mixvae.adam import AdamState, adam_step
from mixvae.checkpoint import load_checkpoint, save_checkpoint
from mixvae.model import Architecture, backward, draw_eps, init_params, supervised_elbo
from mixvae.replay import UsageCounts, take_snapshot
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


def all_rows_constrained(params, x, eps, y):
    """Reference for the constrained loss that decodes all B*K rows.

    Per-sample values, loss and gradients of log p(x|z_y) - KL_y + ln q(y|x)
    from the marginalized forward pass, with a one-hot g_r over every
    decoded (sample, component) row sent back through the decoder.
    """
    cache = model._forward(params, x, eps)
    bd = cache.breakdown
    b, k, nz = eps.shape
    rows = np.arange(b)
    values = (bd.recon_per_component[rows, y] - bd.gauss_kl_per_component[rows, y]
              + cache.ln_q[rows, y])
    grads = model.FlatBuffers(params.shapes)  # _dense_relu_backward writes into its views
    onehot = np.zeros((b, k))
    onehot[rows, y] = 1.0
    g_r = -onehot / b
    g_t = -(onehot - bd.task_posterior) / b
    grads["task_w"] = g_t.T @ cache.h
    grads["task_b"] = g_t.sum(axis=0)
    g_h = g_t @ params["task_w"]

    g_o = (g_r[:, :, None] * (x[:, None, :] - cache.p) * cache.p_mask).reshape(b * k, -1)
    *hidden, (w_out, b_out) = params.layers["dec"]
    grads[w_out] = g_o.T @ cache.g
    grads[b_out] = g_o.sum(axis=0)
    g_a0 = model._dense_relu_backward(g_o @ params[w_out], params, hidden, cache.dec, grads)
    g_z = (g_a0 @ params[hidden[0][0]]).reshape(b, k, nz)

    g_klg = -g_r[:, :, None]
    psig, pmu = cache.psig[None], params["prior_mu"][None]
    inv_p2 = 1.0 / (psig * psig)
    g_mu = g_klg * (cache.mu - pmu) * inv_p2 + g_z
    g_sig = g_klg * (cache.sig * inv_p2 - 1.0 / cache.sig) + g_z * cache.eps
    g_a = np.concatenate([g_mu, g_sig * model.sigmoid(cache.rho)], axis=2)
    grads["lat_w"] = np.einsum("bkj,bh->kjh", g_a, cache.h)
    grads["lat_b"] = g_a.sum(axis=0)
    g_h = g_h + np.einsum("bkj,kjh->bh", g_a, params["lat_w"])
    grads["prior_mu"] = np.sum(g_klg * (pmu - cache.mu) * inv_p2, axis=0)
    g_psig = np.sum(g_klg * (1.0 / psig - (cache.sig ** 2 + (cache.mu - pmu) ** 2) / psig ** 3),
                    axis=0)
    grads["prior_rho"] = g_psig * model.sigmoid(params["prior_rho"])
    model._dense_relu_backward(g_h, params, params.layers["enc"], cache.enc, grads)
    return values, float(-np.mean(values)), grads


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("batch", [1, 17])
def test_constrained_path_decodes_labelled_rows_only(k, batch):
    # the B-row decode gives what decoding all B*K rows and reading one gives
    seed = 10 * k + batch
    params = tiny_params(seed=seed, k=k, k_max=6)
    x = random_inputs(batch, 6, seed=seed)
    eps = draw_eps(params, batch, RngState(seed, (32,)))
    labels = RngState(seed, (33,)).integers(k, size=batch)
    skipped = np.full(batch, k - 1)  # every sample on one component, the others unused
    skipped[::3] = 0
    for y in (labels, skipped):
        values, ref_loss, ref_grads = all_rows_constrained(params, x, eps, y)
        loss, grads, bd = backward(x, params, None, y_obs=y, eps=eps)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        np.testing.assert_allclose(supervised_elbo(x, y, params, None, eps=eps), values,
                                   rtol=1e-12, atol=0)
        assert set(grads) == set(ref_grads)
        for name, g in grads.items():
            np.testing.assert_allclose(g, ref_grads[name], rtol=1e-12, atol=0,
                                       err_msg=name)
        # the constrained breakdown holds only what needs no decode
        assert bd.recon_per_component is None and bd.gauss_kl_per_component is None
        assert bd.total is None
        marginal = model.elbo(x, params, None, eps=eps)
        assert np.array_equal(bd.task_posterior, marginal.task_posterior)
        assert np.array_equal(bd.cat_kl, marginal.cat_kl)


@pytest.mark.parametrize("batch", [1, 17])
def test_single_component_constrained_equals_marginal(batch):
    params = tiny_params(seed=batch, k=1)
    x = random_inputs(batch, 6, seed=batch + 80)
    eps = draw_eps(params, batch, RngState(batch, (34,)))
    loss_m, grads_m, _ = backward(x, params, None, eps=eps)
    grads_m = {name: g.copy() for name, g in grads_m.items()}  # the next call rewrites them
    loss_c, grads_c, _ = backward(x, params, None, y_obs=np.zeros(batch, dtype=int), eps=eps)
    assert loss_c == loss_m
    for name, g in grads_m.items():
        np.testing.assert_array_equal(grads_c[name], g, err_msg=name)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_step_buffers_give_the_bits_of_fresh_calls():
    # one object's buffers through marginal and constrained batches of several
    # sizes and an expansion K -> K+1; every call matches a call on a clone,
    # which decodes into fresh buffers of its own
    params = tiny_params(seed=7, k=2)
    bufs = params.step_buffers
    rng = RngState(7, (35,))
    held = []
    for i, (batch, constrained) in enumerate([(5, False), (5, True), (9, False), (3, True),
                                              (0, None), (3, True), (9, False), (1, False),
                                              (9, True)]):
        if batch == 0:
            params.add_component_copy(1)
            continue
        x = random_inputs(batch, 6, seed=90 + i)
        eps = draw_eps(params, batch, rng)
        y = rng.integers(params.k, size=batch) if constrained else None
        fresh = params.clone()
        assert fresh.step_buffers.rows == 0
        loss, grads, bd = backward(x, params, None, y_obs=y, eps=eps)
        want_loss, want_grads, want_bd = backward(x, fresh, None, y_obs=y, eps=eps)
        assert loss == want_loss
        assert grads.shapes == params.shapes and same_bits(grads.vector, want_grads.vector)
        assert not np.shares_memory(grads.vector, bufs.out)
        marginal, want_marginal = (model.elbo(x, p, None, eps=eps) for p in (params, fresh))
        for name in ("task_posterior", "recon_per_component", "gauss_kl_per_component",
                     "cat_kl", "total"):
            assert same_bits(getattr(marginal, name), getattr(want_marginal, name)), name
        if constrained:
            assert same_bits(supervised_elbo(x, y, params, None, eps=eps),
                             supervised_elbo(x, y, fresh, None, eps=eps))
        held.append((bd, want_bd, marginal, want_marginal))
    # a breakdown is new arrays, so no later call has changed one
    for bd, want_bd, marginal, want_marginal in held:
        for got, want in ((bd, want_bd), (marginal, want_marginal)):
            for name in ("task_posterior", "recon_per_component", "gauss_kl_per_component",
                         "cat_kl", "total"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None and b is None) or same_bits(a, b), name


def test_step_buffers_are_made_again_only_for_a_new_layout_or_a_larger_batch():
    params = tiny_params(seed=8, k=2)
    bufs = params.step_buffers
    x = random_inputs(6, 6, seed=8)

    def run(batch, y_obs=None):
        eps = draw_eps(params, batch, RngState(batch, (36,)))
        backward(x[:batch], params, None, y_obs=y_obs, eps=eps)
        return bufs.out

    first = run(6)
    assert bufs.rows == 12 and first.shape == (12, 6)
    assert run(4) is first and run(6, y_obs=np.zeros(6, dtype=int)) is first
    assert bufs.rows == 12
    params.add_component_copy(0)
    grown = run(4)
    assert grown is not first and bufs.rows == 12 and bufs.k == 3
    assert run(6) is not grown and bufs.rows == 18


def test_every_params_object_starts_with_unmapped_buffers_of_its_own(tmp_path):
    params = tiny_params(seed=9, k=2)
    x = random_inputs(3, 6, seed=9)
    backward(x, params, None, eps=draw_eps(params, 3, RngState(9, (44,))))
    assert params.step_buffers.rows == 6
    save_checkpoint(tmp_path / "a.ckpt", params)
    made = [tiny_params(seed=9, k=2), params.clone(), load_checkpoint(tmp_path / "a.ckpt").params]
    assert all(p.step_buffers.rows == 0 for p in made)
    assert len({id(p.step_buffers) for p in made + [params]}) == 4
    # a snapshot's generative copy only generates, so it has no step buffers
    assert not hasattr(take_snapshot(params, UsageCounts(params.k), 0).params, "step_buffers")


def test_objects_that_have_decoded_share_no_block():
    params = tiny_params(seed=10, k=2)
    twin = params.clone()
    x = random_inputs(3, 6, seed=10)
    eps = draw_eps(params, 3, RngState(10, (45,)))
    for p in (params, twin):
        backward(x, p, None, eps=eps)
    a, b = params.step_buffers, twin.step_buffers
    assert a.rows == b.rows == 6

    def views(bufs):
        return [*bufs.acts, *bufs.masks, bufs.out, bufs.p_mask, bufs.scratch, bufs.flags]
    assert not any(np.shares_memory(u, v) for u in views(a) for v in views(b))


def test_a_full_scale_float32_step_allocates_no_gradient_vector():
    # 784-1200-600-300-150 encoder, n_z 32, 500-500 decoder at K=25 in
    # float32: once the step buffers and the Adam moments exist, backward
    # writes its gradients into the step buffers, so a whole training step
    # traces less than the float32 gradient vector's own bytes
    arch = Architecture(784, (1200, 600, 300, 150), 32, (500, 500), k_max=25)
    rng = RngState(0, (70,))
    params = init_params(arch, rng, k_init=25)
    params.compute_dtype = np.dtype(np.float32)
    x = rng.uniform(0.0, 1.0, (64, arch.input_dim))
    eps = draw_eps(params, 64, rng)
    adam = AdamState()

    def step():
        _, grads, _ = backward(x, params, None, eps=eps)
        adam_step(params, grads, adam)
    step()  # makes the step buffers and the moments
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * params.vector.size


def _all_outputs(params, x, eps, y):
    """Loss, gradient vector and elbo fields of both loss paths at (x, eps, y)."""
    out = []
    for y_obs in (None, y):
        loss, grads, _ = backward(x, params, None, y_obs=y_obs, eps=eps)
        out += [loss, grads.vector.copy()]  # the next call rewrites the vector
    bd = model.elbo(x, params, None, eps=eps)
    out += [bd.task_posterior, bd.recon_per_component, bd.gauss_kl_per_component, bd.cat_kl,
            bd.total, supervised_elbo(x, y, params, None, eps=eps)]
    return out


@pytest.mark.parametrize("head_block", [7, 24, 30])
@pytest.mark.parametrize("batch", [1, 5, 9])
def test_bernoulli_head_in_many_blocks_gives_the_bits_of_one(monkeypatch, head_block, batch):
    # At K=2 and D=6 a sample is 12 head elements under the marginal loss and
    # 6 under the constrained one: 7 makes one block per sample, 24 and 30
    # make blocks of several samples whose last block is partial.
    params = tiny_params(seed=11, k=2)
    x = random_inputs(batch, 6, seed=batch)
    eps = draw_eps(params, batch, RngState(batch, (37,)))
    y = RngState(batch, (38,)).integers(params.k, size=batch)
    assert model.HEAD_BLOCK >= batch * params.k * 6  # the default is one block
    want = _all_outputs(params, x, eps, y)
    monkeypatch.setattr(model, "HEAD_BLOCK", head_block)
    assert len(model._sample_blocks((batch, params.k, 6))) == -(-batch // max(1, head_block // 12))
    for got in (_all_outputs(params, x, eps, y), _all_outputs(params.clone(), x, eps, y)):
        for i, (a, b) in enumerate(zip(got, want)):
            assert same_bits(a, b), i


@pytest.mark.parametrize("k", [1, 3])
def test_reconstruction_has_the_bits_of_the_whole_array_expressions(k):
    # elbo's blocked Bernoulli head against decode() and
    # ref.bernoulli_log_likelihood(), which evaluate it over whole arrays
    params = tiny_params(seed=12, k=k)
    x = random_inputs(5, 6, seed=12)
    eps = draw_eps(params, 5, RngState(12, (39,)))
    h = model.encode_shared(x, params)
    z = np.stack([mu + sig * eps[:, j] for j in range(k)
                  for mu, sig in [model.component_posterior_params(h, j, params)]], axis=1)
    want = ref.bernoulli_log_likelihood(np.repeat(x[:, None, :], k, axis=1),
                                        model.decode(z, params))
    assert same_bits(model.elbo(x, params, None, eps=eps).recon_per_component, want)


@pytest.mark.parametrize("nan_unit", [False, True])
def test_encode_shared_and_decode_give_the_bits_of_the_whole_array_forms(nan_unit):
    # both run _dense_relu, as the training forward does; a NaN
    # pre-activation becomes 0 there, as in training
    params = tiny_params(seed=14, k=2)
    if nan_unit:
        params["enc_w.0"][1, 2] = np.nan
        params["dec_w.0"][0, 1] = np.nan
    x = random_inputs(7, 6, seed=14)
    want_h, _ = ref._relu_layers(x, params, params.layers["enc"])
    assert same_bits(model.encode_shared(x, params), want_h)
    assert same_bits(model.encode_shared(x[3], params),
                     ref._relu_layers(x[3:4], params, params.layers["enc"])[0][0])
    z = RngState(14, (43,)).normal((7, 2, params.arch.n_z))
    *hidden, (w_out, b_out) = params.layers["dec"]
    g, _ = ref._relu_layers(z.reshape(14, -1), params, hidden)
    want_p = np.clip(ref.sigmoid(g @ params[w_out].T + params[b_out]), ref.EPS, 1.0 - ref.EPS)
    assert same_bits(model.decode(z, params), want_p.reshape(7, 2, -1))
    assert np.all(np.isfinite(want_h)) and np.all(np.isfinite(want_p))


@pytest.mark.parametrize("head_block", [None, 7, 30])
@pytest.mark.parametrize("k, batch", [(1, 1), (2, 5), (3, 2), (4, 9)])
def test_passes_give_the_bits_of_the_whole_array_forms(monkeypatch, head_block, k, batch):
    # backward, elbo and supervised_elbo against the plain expressions in
    # reference_forms, in one head block and in many, on a clone's fresh
    # buffers for each call and on one object's buffers reused across both
    # loss paths
    if head_block is not None:
        monkeypatch.setattr(model, "HEAD_BLOCK", head_block)
    params = tiny_params(seed=20 + k, k=k)
    x = random_inputs(batch, 6, seed=batch + k)
    eps = draw_eps(params, batch, RngState(batch, (40,)))
    y = RngState(batch, (41,)).integers(k, size=batch)
    for on in (params.clone, lambda: params):
        for y_obs in (None, y):
            want_loss, want_grads, want_fields, want_values = ref.forward_backward(
                params, x, eps, y_obs)
            loss, grads, bd = backward(x, on(), None, y_obs=y_obs, eps=eps)
            assert loss == want_loss
            assert ref.same_bits(grads.vector, want_grads.vector)
            for name, want in want_fields.items():
                got = getattr(bd, name)
                assert (got is None and want is None) or ref.same_bits(got, want), name
            if y_obs is None:
                assert ref.same_bits(model.elbo(x, on(), None, eps=eps).total, want_values)
            else:
                assert ref.same_bits(supervised_elbo(x, y_obs, on(), None, eps=eps),
                                     want_values)


def _head_logits(batch, r, d):
    """(B, R, D) logits: random values and, in order, every edge the head's
    sigmoid, clamp and mask treat apart, including logits whose means land
    at and next to BERNOULLI_EPS and 1 - BERNOULLI_EPS."""
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0]
    lo = np.log(ref.EPS / (1.0 - ref.EPS))
    edges += list(lo + np.arange(-8, 9) * np.spacing(lo))
    edges += list(-lo + np.arange(-40, 41) * 5e-11)  # means step by half an ulp of 1 - EPS
    o = 20.0 * RngState(d, (42,)).normal(batch * r * d)
    o[:len(edges)] = edges
    return o.reshape(batch, r, d)


@pytest.mark.parametrize("head_block", [None, 7, 24, 30])
def test_bernoulli_head_gives_the_bits_of_the_whole_array_forms(monkeypatch, head_block):
    # the in-place head, in one block and in many, against sigmoid with
    # np.where, np.clip and np.sum over logits at every edge
    if head_block is not None:
        monkeypatch.setattr(model, "HEAD_BLOCK", head_block)
    batch, r, d = 20, 2, 6  # 240 logits: 107 edges, the rest random
    o = _head_logits(batch, r, d)
    x = random_inputs(batch, d, seed=43)
    x[0, :3] = [0.0, 1.0, 0.5]
    with np.errstate(invalid="ignore"):
        want_p, want_mask, want_recon = ref.bernoulli_head(x, o)
        p, mask = o.copy(), np.empty(o.shape, dtype=bool)
        recon = model._bernoulli_head(x, p, mask, model.StepBuffers().fit(tiny_params(k=r), batch))
    assert ref.same_bits(p, want_p) and ref.same_bits(mask, want_mask)
    assert ref.same_bits(recon, want_recon)
    s = ref.sigmoid(o[np.isfinite(o)])  # the means before the clamp hit every side of it
    top, bottom = 1.0 - ref.EPS, ref.EPS
    assert np.any(s == top)
    assert np.any((s < top) & (s > top - 1e-15)) and np.any((s > top) & (s < top + 1e-15))
    assert np.any((s < bottom) & (s > bottom * (1 - 1e-14)))
    assert np.any((s > bottom) & (s < bottom * (1 + 1e-14)))
