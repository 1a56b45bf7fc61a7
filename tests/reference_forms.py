"""Whole-array reference forms of the model's elementwise kernels and passes.

These are the expressions `mixvae.model` and `mixvae.kernels` compute,
written the plain way: `np.where` for the sigmoid's numerator, `np.clip`
for the Bernoulli clamp, `np.sum`/`np.mean`/`np.max` reductions, fresh
arrays throughout and no reuse of one quantity in another. The library
evaluates them with fewer numpy calls (in place, with shared terms
computed once, with `ufunc.reduce` in place of the wrappers) but gives
each element the same IEEE operations, so tests compare the two bit for
bit.
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


def bernoulli_head(x, o):
    """Clamped means, where the clamp is inactive, and the (B, R) log-likelihood
    of the (B, R, D) logits `o` at targets x (B, D)."""
    p = sigmoid(o)
    mask = (p > EPS) & (p < 1.0 - EPS)
    p = np.clip(p, EPS, 1.0 - EPS)
    xb = x[:, None, :]
    return p, mask, np.sum(xb * np.log(p) + (1.0 - xb) * np.log1p(-p), axis=2)


def bernoulli_head_backward(x, p, mask, g_r):
    return (x[:, None, :] - p) * g_r[:, :, None] * mask


def _relu_layers(h, params, layers):
    cache = []
    for w, b in layers:
        a = h @ params[w].T + params[b]
        cache.append((h, a > 0))
        h = np.where(a > 0, a, 0.0)
    return h, cache


def _relu_layers_backward(g, params, layers, cache, grads):
    for i in reversed(range(len(layers))):
        (w, b), (h, mask) = layers[i], cache[i]
        g = g * mask
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
    var_ratio = (sig / psig[None]) ** 2
    delta = (mu - params["prior_mu"][None]) / psig[None]
    klg = np.sum(np.log(psig[None] / sig) + 0.5 * (var_ratio + delta * delta) - 0.5, axis=2)
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
