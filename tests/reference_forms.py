"""Whole-array reference forms of the model's elementwise kernels and passes.

These are the expressions `mixvae.model` and `mixvae.kernels` compute,
written the plain way: `np.where` for the sigmoid's numerator, `np.clip`
for the Bernoulli clamp, `np.sum`/`np.mean`/`np.max` reductions, fresh
arrays throughout and no reuse of one quantity in another. The library
evaluates them with fewer numpy calls (in place, with shared terms
computed once, with `ufunc.reduce` in place of the wrappers) but gives
each element the same IEEE operations, so tests compare the two bit for
bit.

They also hold the whole-array ELBO terms (`bernoulli_log_likelihood`,
`gaussian_kl`, `prior_params`) and identities (`recompose`,
`independent_single_vae_elbo`) that acceptance criterion 2 checks the
fused pass against.
"""

import numpy as np

from mixvae import model

EPS = model.BERNOULLI_EPS


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)


def softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_softmax(v, axis=-1):
    m = np.max(v, axis=axis, keepdims=True)
    shifted = v - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def bernoulli_log_likelihood(x, p):
    """sum_d x_d ln p_d + (1-x_d) ln(1-p_d) over the last axis, for clamped
    means p; soft targets x in [0,1] allowed."""
    return np.sum(x * np.log(p) + (1.0 - x) * np.log1p(-p), axis=-1)


def gaussian_kl(q_mu, q_sigma, p_mu, p_sigma):
    """KL[N(q_mu, q_sigma^2) || N(p_mu, p_sigma^2)] of diagonal Gaussians,
    summed over the last axis."""
    var_ratio = (q_sigma / p_sigma) ** 2
    delta = (q_mu - p_mu) / p_sigma
    return np.sum(np.log(p_sigma / q_sigma) + 0.5 * (var_ratio + delta * delta) - 0.5, axis=-1)


def prior_params(k, params):
    """(mu_z(y=k), sigma_z(y=k)): row k of the prior table."""
    return params["prior_mu"][k], softplus(params["prior_rho"][k]) + model.SIGMA_FLOOR


def recompose(bd):
    """The marginalized objective from an `ElboBreakdown`'s terms."""
    return np.sum(bd.task_posterior * (bd.recon_per_component - bd.gauss_kl_per_component),
                  axis=-1) - bd.cat_kl


def independent_single_vae_elbo(x, params, eps):
    """Oracle: plain single-component VAE objective composed from the
    public single-purpose ops, bypassing the marginalized path."""
    h = model.encode_shared(x, params)
    mu, sig = model.component_posterior_params(h, 0, params)
    recon = bernoulli_log_likelihood(x, model.decode(mu + sig * eps, params))
    p_mu, p_sig = prior_params(0, params)
    return float(recon - gaussian_kl(mu, sig, p_mu, p_sig))


def bernoulli_head(x, o):
    """Clamped means, where the clamp is inactive, and the (B, R) log-likelihood
    of the (B, R, D) logits `o` at targets x (B, D)."""
    p = sigmoid(o)
    mask = (p > EPS) & (p < 1.0 - EPS)
    p = np.clip(p, EPS, 1.0 - EPS)
    return p, mask, bernoulli_log_likelihood(x[:, None, :], p)


def bernoulli_head_backward(x, p, mask, g_r):
    return (x[:, None, :] - p) * g_r[:, :, None] * mask


def _relu_layers(h, params, layers):
    """The stack's output and each layer's (input, pre-activation)."""
    cache = []
    for w, b in layers:
        a = h @ params[w].T + params[b]
        cache.append((h, a))
        h = np.where(a > 0, a, 0.0)
    return h, cache


def _relu_layers_backward(g, params, layers, cache, grads):
    for i in reversed(range(len(layers))):
        (w, b), (h, a) = layers[i], cache[i]
        g = g * (a > 0)
        grads[w] = g.T @ h
        grads[b] = g.sum(axis=0)
        if i:
            g = g @ params[w]
    return g


def forward_backward(params, x, eps, y=None):
    """(loss, gradients, breakdown fields, per-sample values) of the
    marginalized objective, or of the constrained one at labels y."""
    b, k, nz = eps.shape
    d = params.arch.input_dim
    rows = np.arange(b)
    h, enc = _relu_layers(x, params, params.layers["enc"])
    ln_q = log_softmax(h @ params["task_w"].T + params["task_b"], axis=1)
    q = np.exp(ln_q)
    a = ((h @ params["lat_w"].reshape(k * 2 * nz, -1).T).reshape(b, k, 2 * nz)
         + params["lat_b"][None])
    mu, rho = a[:, :, :nz], a[:, :, nz:]
    sig = softplus(rho) + model.SIGMA_FLOOR
    z = mu + sig * eps
    z_dec = z.reshape(b * k, nz) if y is None else z[rows, y]
    *hidden, (w_out, b_out) = params.layers["dec"]
    g, dec = _relu_layers(z_dec, params, hidden)
    o = (g @ params[w_out].T + params[b_out]).reshape(b, -1, d)
    p, p_mask, recon = bernoulli_head(x, o)

    psig = softplus(params["prior_rho"]) + model.SIGMA_FLOOR
    klg = gaussian_kl(mu, sig, params["prior_mu"][None], psig[None])
    cat_kl = np.sum(q * (ln_q + np.log(k)), axis=1)
    if y is None:
        value = np.sum(q * (recon - klg), axis=1) - cat_kl
        fields = dict(task_posterior=q, recon_per_component=recon,
                      gauss_kl_per_component=klg, cat_kl=cat_kl, total=value)
    else:
        value = recon[:, 0] - klg[rows, y] + ln_q[rows, y]
        fields = dict(task_posterior=q, recon_per_component=None,
                      gauss_kl_per_component=None, cat_kl=cat_kl, total=None)

    scale = -1.0 / b
    grads = model.FlatBuffers(params.shapes)
    loss = float(-np.mean(value))
    if y is None:
        g_r = scale * q
        g_q = scale * ((recon - klg) - (ln_q + np.log(k)) - 1.0)
        g_t = q * (g_q - np.sum(q * g_q, axis=1, keepdims=True))
        g_r_dec = g_r
    else:
        onehot = np.zeros((b, k))
        onehot[rows, y] = 1.0
        g_r = scale * onehot
        g_t = scale * (onehot - q)
        g_r_dec = g_r[rows, y][:, None]
    grads["task_w"] = g_t.T @ h
    grads["task_b"] = g_t.sum(axis=0)
    g_h = g_t @ params["task_w"]

    g_o = bernoulli_head_backward(x, p, p_mask, g_r_dec).reshape(-1, d)
    grads[w_out] = g_o.T @ g
    grads[b_out] = g_o.sum(axis=0)
    g_z_dec = _relu_layers_backward(g_o @ params[w_out], params, hidden, dec, grads)
    g_z_dec = g_z_dec @ params[hidden[0][0]]
    if y is None:
        g_z = g_z_dec.reshape(b, k, nz)
    else:
        g_z = np.zeros((b, k, nz))
        g_z[rows, y] = g_z_dec

    g_klg = -g_r
    ps, pmu = psig[None], params["prior_mu"][None]
    inv_p2 = 1.0 / (ps * ps)
    g_mu = g_klg[:, :, None] * (mu - pmu) * inv_p2
    g_sig = g_klg[:, :, None] * (sig * inv_p2 - 1.0 / sig)
    grads["prior_mu"] = np.sum(g_klg[:, :, None] * (pmu - mu) * inv_p2, axis=0)
    g_psig = np.sum(g_klg[:, :, None]
                    * (1.0 / ps - (sig ** 2 + (mu - pmu) ** 2) / ps ** 3), axis=0)
    grads["prior_rho"] = g_psig * sigmoid(params["prior_rho"])
    g_mu = g_mu + g_z
    g_sig = g_sig + g_z * eps
    g_a = np.concatenate([g_mu, g_sig * sigmoid(rho)], axis=2)
    g_a_flat = g_a.reshape(b, k * 2 * nz)
    grads["lat_w"] = (g_a_flat.T @ h).reshape(k, 2 * nz, -1)
    grads["lat_b"] = g_a.sum(axis=0)
    g_h = g_h + g_a_flat @ params["lat_w"].reshape(k * 2 * nz, -1)
    _relu_layers_backward(g_h, params, params.layers["enc"], enc, grads)
    return loss, grads, fields, value
