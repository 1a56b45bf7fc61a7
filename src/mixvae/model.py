"""Mixture-of-Gaussians latent-variable model: forward passes, ELBO, manual backprop.

Generative process: y ~ Cat(uniform), z ~ N(mu_z(y), sigma_z(y)^2),
x ~ Bernoulli(mu_x(z)). The variational posterior factorizes as
q(y|x) q(z|x,y): a shared ReLU MLP encoder feeds a K-way softmax task
head and K per-component linear latent heads (first half mean, second
half softplus pre-variance). The component priors are per-component
(mu, rho) rows with sigma = softplus(rho). A single ReLU MLP decoder
with a sigmoid output layer maps z back to Bernoulli means.

The training objective marginalizes y exactly over the K active
components and draws one reparameterized z sample per component:

    total = sum_k q(y=k|x) * (log p(x|z_k) - KL[q(z|x,k) || p(z|k)])
            - KL[q(y|x) || uniform]

so it decodes B*K rows per batch of B. The component-constrained
objective for observed labels y,

    log p(x|z_y) - KL[q(z|x,y) || p(z|y)] + ln q(y|x),

reads one component per sample and decodes only those B rows.

Gradients are computed by hand-written reverse mode over the cached
forward pass, so forward and backward always see the same noise.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .errors import NumericError, ShapeError
from .kernels import (
    as_f64,
    glorot_uniform,
    log_softmax,
    relu,
    sigmoid,
    softplus,
)
from .rng import RngState

# Floor added to every softplus-produced sigma; keeps KL and the
# reparameterization path away from zero variance.
SIGMA_FLOOR = 1e-6
# Bernoulli means are clamped to [BERNOULLI_EPS, 1 - BERNOULLI_EPS]
# before any log-likelihood.
BERNOULLI_EPS = 1e-6


@dataclass(frozen=True)
class Architecture:
    input_dim: int
    encoder: tuple[int, ...]
    n_z: int
    decoder: tuple[int, ...]
    k_max: int

    def __post_init__(self):
        if self.input_dim < 1 or self.n_z < 1 or self.k_max < 1:
            raise ValueError("input_dim, n_z, k_max must be positive")
        if not self.encoder or not self.decoder:
            raise ValueError("encoder and decoder need at least one hidden layer")


def param_spec(arch: Architecture, k: int) -> list[tuple[str, tuple[int, ...], bool]]:
    """Every learnable buffer as (name, shape, per_component), in checkpoint order.

    Dense layers are `<stack>_w.<i>` (fan_out, fan_in) and `<stack>_b.<i>`
    for the encoder ("enc") and the decoder ("dec", whose last layer maps
    to the input). Per-component buffers hold one row per component along
    axis 0, so expansion appends a row to each of them.
    """
    h, nz = arch.encoder[-1], arch.n_z

    def dense(stack, sizes):
        return [entry for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
                for entry in ((f"{stack}_w.{i}", (n_out, n_in), False),
                              (f"{stack}_b.{i}", (n_out,), False))]
    return (dense("enc", (arch.input_dim,) + arch.encoder)
            + [("task_w", (k, h), True), ("task_b", (k,), True),
               ("lat_w", (k, 2 * nz, h), True), ("lat_b", (k, 2 * nz), True),
               ("prior_mu", (k, nz), True), ("prior_rho", (k, nz), True)]
            + dense("dec", (nz,) + arch.decoder + (arch.input_dim,)))


def _shapes(arch: Architecture, k: int) -> dict[str, tuple[int, ...]]:
    return {name: shape for name, shape, _ in param_spec(arch, k)}


class FlatBuffers(Mapping):
    """Named arrays that are reshaped views of one contiguous float64 vector.

    The views tile `vector` in the order of `shapes`, so a write through
    `self[name]` reaches the vector, and one pass over the vector (an Adam
    update, a copy, a file write) covers every buffer. `self[name] = a`
    copies `a` into the view.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], vector: np.ndarray | None = None):
        sizes = [math.prod(shape) for shape in shapes.values()]
        vector = np.zeros(sum(sizes)) if vector is None else vector
        if (vector.shape != (sum(sizes),) or vector.dtype != np.float64
                or not vector.flags.c_contiguous):
            raise ShapeError(f"{vector.dtype} vector of shape {vector.shape} for a layout "
                             f"of {sum(sizes)} float64 values")
        self.shapes = dict(shapes)
        self.vector = vector
        self._views = {}
        start = 0
        for (name, shape), size in zip(self.shapes.items(), sizes):
            self._views[name] = vector[start:start + size].reshape(shape)
            start += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        self._views[name][...] = value

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return list(self._views.items())


class ModelParams(FlatBuffers):
    """All learnable buffers in `param_spec` order, as views of one float64
    vector, plus the active component count K.

    `buffers` is a dict of named arrays, checked against the registry and
    copied into a new vector; or a vector of the layout's length, used as
    it is; or None for all zeros.
    """

    def __init__(self, arch: Architecture, k: int,
                 buffers: dict[str, np.ndarray] | np.ndarray | None = None):
        if not 1 <= k <= arch.k_max:
            raise ShapeError(f"K={k} outside [1, K_max={arch.k_max}]")
        shapes = _shapes(arch, k)
        if isinstance(buffers, dict):
            have = [(name, np.shape(buf)) for name, buf in buffers.items()]
            bad = next(((w, h) for w, h in zip_longest(shapes.items(), have) if w != h), None)
            if bad is not None:
                raise ShapeError(f"buffer {bad[1]} where the registry declares {bad[0]}")
            buffers = np.concatenate([np.ravel(buf) for buf in buffers.values()],
                                     dtype=np.float64)
        super().__init__(shapes, buffers)
        self.arch = arch
        self.k = k
        # (weight, bias) names of each "enc" and "dec" dense layer, input side
        # first; the registry lists each dense weight just before its bias.
        names = list(shapes)
        self.layers = {stack: [(w, b) for w, b in zip(names, names[1:])
                               if w.startswith(stack + "_w.")]
                       for stack in ("enc", "dec")}

    def clone(self) -> "ModelParams":
        """Independent copy: one copy of the parameter vector."""
        return ModelParams(self.arch, self.k, self.vector.copy())

    def add_component_copy(self, parent: int) -> None:
        """Append component K+1 as an exact copy of component `parent`."""
        if not (0 <= parent < self.k):
            raise IndexError(f"parent {parent} out of range for K={self.k}")
        if self.k + 1 > self.arch.k_max:
            raise ShapeError(f"expansion beyond capacity K_max={self.arch.k_max}")
        vector = add_component_rows(self.arch, self.k, self.vector, parent)
        self.k += 1
        super().__init__(_shapes(self.arch, self.k), vector)


def add_component_rows(arch: Architecture, k: int, vector: np.ndarray,
                       parent: int | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """The K+1 layout's vector, built from the K layout's `vector` (into
    `out` when given).

    Each per-component buffer gains a last row: a copy of row `parent`, or
    zeros when `parent` is None (the Adam moments of a new component).
    Every other value keeps its place within its buffer.
    """
    pieces, start = [], 0
    for _, shape, per_component in param_spec(arch, k):
        buf = vector[start:start + math.prod(shape)].reshape(shape)
        start += buf.size
        pieces.append(buf.ravel())
        if per_component:
            pieces.append(np.zeros(buf[0].size) if parent is None else buf[parent].ravel())
    return np.concatenate(pieces, out=out)


def init_params(arch: Architecture, rng: RngState, k_init: int = 1) -> ModelParams:
    """Glorot-uniform weights (the `*_w` buffers), zero biases, zero prior rows.

    Weights are drawn in the registry's order, each into its view of the
    parameter vector, so a given seed always produces the same parameters.
    Task and latent head weights are drawn per component row (fan_in =
    shared width, fan_out = the row's output count), so the scale does not
    depend on the initial component count.
    """
    if not (1 <= k_init <= arch.k_max):
        raise ValueError(f"k_init must be in [1, {arch.k_max}]")
    params = ModelParams(arch, k_init)
    for name, shape, per_component in param_spec(arch, k_init):
        if "_w" in name:
            row = shape[1:] if per_component else shape
            glorot_uniform(rng, row[-1], int(np.prod(row[:-1])), params[name])
    return params


# ---------------------------------------------------------------------------
# Forward building blocks (single sample or batch).

def encode_shared(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Shared representation: ReLU MLP over the flattened input."""
    x = as_f64(x)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.arch.input_dim:
        raise ShapeError(f"input dim {h.shape[1]} != encoder input {params.arch.input_dim}")
    for w, b in params.layers["enc"]:
        h = relu(h @ params[w].T + params[b])
    return h[0] if single else h


def infer_task_posterior(h: np.ndarray, params: ModelParams) -> np.ndarray:
    """q(y|x): softmax over the K active task-head logits."""
    h = as_f64(h)
    single = h.ndim == 1
    hh = h[None, :] if single else h
    q = np.exp(log_softmax(hh @ params["task_w"].T + params["task_b"], axis=1))
    return q[0] if single else q


def component_posterior_params(h: np.ndarray, k: int, params: ModelParams):
    """(mu, sigma) of q(z|x, y=k) from the shared representation."""
    if not (0 <= k < params.k):
        raise IndexError(f"component {k} out of range for K={params.k}")
    nz = params.arch.n_z
    a = as_f64(h) @ params["lat_w"][k].T + params["lat_b"][k]
    mu = a[..., :nz]
    sig = softplus(a[..., nz:]) + SIGMA_FLOOR
    return mu, sig


def prior_params(k: int, params: ModelParams):
    """(mu_z(y=k), sigma_z(y=k)): row lookup into the prior table."""
    if not (0 <= k < params.k):
        raise IndexError(f"component {k} out of range for K={params.k}")
    return params["prior_mu"][k].copy(), softplus(params["prior_rho"][k]) + SIGMA_FLOOR


def reparameterize(mu: np.ndarray, sigma: np.ndarray, rng: RngState) -> np.ndarray:
    """z = mu + sigma * eps with eps ~ N(0, I)."""
    mu = as_f64(mu)
    sigma = as_f64(sigma)
    if mu.shape != sigma.shape:
        raise ShapeError(f"mu shape {mu.shape} != sigma shape {sigma.shape}")
    if np.any(sigma <= 0):
        raise NumericError("reparameterize requires strictly positive sigma")
    return mu + sigma * rng.normal(mu.shape)


def decode(z: np.ndarray, params: ModelParams) -> np.ndarray:
    """Bernoulli mean vector in (0,1)^D, clamped away from {0,1}."""
    z = as_f64(z)
    lead = z.shape[:-1]
    if z.shape[-1] != params.arch.n_z:
        raise ShapeError(f"latent dim {z.shape[-1]} != n_z {params.arch.n_z}")
    g = z.reshape(-1, params.arch.n_z)
    *hidden, (w_out, b_out) = params.layers["dec"]
    for w, b in hidden:
        g = relu(g @ params[w].T + params[b])
    o = g @ params[w_out].T + params[b_out]
    p = np.clip(sigmoid(o), BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
    return p.reshape(lead + (params.arch.input_dim,))


def bernoulli_log_likelihood(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_d x_d ln p_d + (1-x_d) ln(1-p_d); soft targets in [0,1] allowed."""
    x = as_f64(x)
    p = np.clip(as_f64(p), BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
    if x.shape != p.shape:
        raise ShapeError(f"target shape {x.shape} != mean shape {p.shape}")
    return np.sum(x * np.log(p) + (1.0 - x) * np.log1p(-p), axis=-1)


def gaussian_kl(q_mu, q_sigma, p_mu, p_sigma) -> np.ndarray:
    """KL[N(q_mu, q_sigma^2) || N(p_mu, p_sigma^2)] for diagonal Gaussians."""
    q_mu, q_sigma, p_mu, p_sigma = map(as_f64, (q_mu, q_sigma, p_mu, p_sigma))
    if not (q_mu.shape == q_sigma.shape and p_mu.shape == p_sigma.shape
            and q_mu.shape[-1] == p_mu.shape[-1]):
        raise ShapeError("gaussian_kl dimension mismatch")
    if np.any(q_sigma <= 0) or np.any(p_sigma <= 0):
        raise NumericError("gaussian_kl requires strictly positive sigmas")
    var_ratio = (q_sigma / p_sigma) ** 2
    delta = (q_mu - p_mu) / p_sigma
    return np.sum(np.log(p_sigma / q_sigma) + 0.5 * (var_ratio + delta * delta) - 0.5, axis=-1)


def categorical_kl(q: np.ndarray, k: int | None = None) -> float | np.ndarray:
    """KL[q || uniform over k classes] = sum q_i ln(q_i k), with 0 ln 0 := 0."""
    q = as_f64(q)
    if k is None:
        k = q.shape[-1]
    if not np.allclose(np.sum(q, axis=-1), 1.0, atol=1e-6):
        raise ValueError("categorical_kl: q must sum to 1")
    terms = np.where(q > 0, q * np.log(np.maximum(q, 1e-300) * k), 0.0)
    out = np.sum(terms, axis=-1)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Full ELBO forward with cache, losses, and manual backprop.

@dataclass
class ElboBreakdown:
    """Per-sample decomposition of the marginalized objective.

    Fields are batched: task_posterior (B,K), recon_per_component (B,K),
    gauss_kl_per_component (B,K), cat_kl (B,), total (B,). A forward pass
    under the constrained loss decodes one component per sample, so its
    breakdown holds only task_posterior and cat_kl; the other fields are None.
    """
    task_posterior: np.ndarray
    recon_per_component: np.ndarray | None
    gauss_kl_per_component: np.ndarray | None
    cat_kl: np.ndarray
    total: np.ndarray | None

    def recompose(self) -> np.ndarray:
        w = self.task_posterior
        return np.sum(w * (self.recon_per_component - self.gauss_kl_per_component),
                      axis=-1) - self.cat_kl

    def squeezed(self) -> "ElboBreakdown":
        return ElboBreakdown(self.task_posterior[0], self.recon_per_component[0],
                             self.gauss_kl_per_component[0], float(self.cat_kl[0]),
                             float(self.total[0]))


@dataclass
class _Cache:
    x: np.ndarray
    enc: list           # (input, relu mask) per encoder layer
    h: np.ndarray
    ln_q: np.ndarray
    rho: np.ndarray
    mu: np.ndarray
    sig: np.ndarray
    eps: np.ndarray
    dec: list           # (input, relu mask) per decoder hidden layer
    g: np.ndarray       # input to the decoder output layer
    p: np.ndarray       # (B, K, D) clamped means, (B, 1, D) under the constrained loss
    p_mask: np.ndarray  # where the clamp is inactive
    psig: np.ndarray
    value: np.ndarray   # (B,) per-sample objective whose negative mean is the loss
    breakdown: ElboBreakdown


def _dense_relu(h: np.ndarray, params: ModelParams, layers) -> tuple[np.ndarray, list]:
    """ReLU MLP over the named (weight, bias) layers; returns the output and
    each layer's (input, mask) for `_dense_relu_backward`."""
    cache = []
    for w, b in layers:
        a = h @ params[w].T + params[b]
        mask = a > 0
        cache.append((h, mask))
        h = np.where(mask, a, 0.0)
    return h, cache


def _dense_relu_backward(g: np.ndarray, params: ModelParams, layers, cache,
                         grads: FlatBuffers) -> np.ndarray:
    """Reverse of `_dense_relu`: write each layer's gradients into its views
    in `grads` and return the gradient with respect to the first layer's
    pre-activation."""
    for i in reversed(range(len(layers))):
        (w, b), (h, mask) = layers[i], cache[i]
        g = g * mask
        np.matmul(g.T, h, out=grads[w])
        g.sum(axis=0, out=grads[b])
        if i:
            g = g @ params[w]
    return g


def _forward(params: ModelParams, x: np.ndarray, eps: np.ndarray,
             y: np.ndarray | None = None) -> _Cache:
    """Cached forward pass of the marginalized objective, or of the
    component-constrained one at labels y."""
    arch = params.arch
    b, k, nz = x.shape[0], params.k, arch.n_z
    if eps.shape != (b, k, nz):
        raise ShapeError(f"eps shape {eps.shape} != {(b, k, nz)}")

    h, enc = _dense_relu(x, params, params.layers["enc"])

    ln_q = log_softmax(h @ params["task_w"].T + params["task_b"], axis=1)
    q = np.exp(ln_q)

    # All K latent heads as one (B, H) x (H, K*2*n_z) matmul.
    a = ((h @ params["lat_w"].reshape(k * 2 * nz, -1).T).reshape(b, k, 2 * nz)
         + params["lat_b"][None])
    mu = a[:, :, :nz]
    rho = a[:, :, nz:]
    sig = softplus(rho) + SIGMA_FLOOR
    z = mu + sig * eps

    # Decode every (sample, component) row, or only row (i, y_i) per sample.
    rows = np.arange(b)
    z_dec = z.reshape(b * k, nz) if y is None else z[rows, y]
    *hidden, (w_out, b_out) = params.layers["dec"]
    g, dec = _dense_relu(z_dec, params, hidden)
    o = g @ params[w_out].T + params[b_out]
    p_raw = sigmoid(o).reshape(b, -1, arch.input_dim)
    p = np.clip(p_raw, BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
    p_mask = (p_raw > BERNOULLI_EPS) & (p_raw < 1.0 - BERNOULLI_EPS)

    xb = x[:, None, :]
    recon = np.sum(xb * np.log(p) + (1.0 - xb) * np.log1p(-p), axis=2)

    psig = softplus(params["prior_rho"]) + SIGMA_FLOOR
    var_ratio = (sig / psig[None]) ** 2
    delta = (mu - params["prior_mu"][None]) / psig[None]
    klg = np.sum(np.log(psig[None] / sig) + 0.5 * (var_ratio + delta * delta) - 0.5, axis=2)

    cat_kl = np.sum(q * (ln_q + np.log(k)), axis=1)
    if y is None:
        value = np.sum(q * (recon - klg), axis=1) - cat_kl
        breakdown = ElboBreakdown(q, recon, klg, cat_kl, value)
    else:
        value = recon[:, 0] - klg[rows, y] + ln_q[rows, y]
        breakdown = ElboBreakdown(q, None, None, cat_kl, None)
    return _Cache(x, enc, h, ln_q, rho, mu, sig, eps, dec, g, p, p_mask, psig, value,
                  breakdown)


def draw_eps(params: ModelParams, batch: int, rng: RngState) -> np.ndarray:
    """One reparameterization noise block per sample per component."""
    return rng.normal((batch, params.k, params.arch.n_z))


def _run_forward(x, params: ModelParams, rng: RngState, eps, y_obs=None):
    """Checked cached forward pass; a single sample runs as a batch of one.

    Returns (cache, labels as an int array or None, whether x was a single sample).
    """
    x = as_f64(x)
    single = x.ndim == 1
    xb = x[None, :] if single else x
    if xb.shape[1] != params.arch.input_dim:
        raise ShapeError(f"input dim {xb.shape[1]} != {params.arch.input_dim}")
    y = None
    if y_obs is not None:
        y = np.asarray(y_obs, dtype=np.int64).reshape(-1)
        if np.any(y < 0) or np.any(y >= params.k):
            raise IndexError(f"y_obs out of range for K={params.k}")
        if y.shape[0] != xb.shape[0]:
            raise ShapeError(f"batch {xb.shape[0]} != labels {y.shape[0]}")
    if eps is None:
        eps = draw_eps(params, xb.shape[0], rng)
    return _forward(params, xb, eps, y), y, single


def elbo(x: np.ndarray, params: ModelParams, rng: RngState,
         eps: np.ndarray | None = None) -> ElboBreakdown:
    """Monte Carlo objective: one z sample per component, exact sum over y."""
    cache, _, single = _run_forward(x, params, rng, eps)
    return cache.breakdown.squeezed() if single else cache.breakdown


def supervised_elbo(x: np.ndarray, y_obs, params: ModelParams, rng: RngState,
                    eps: np.ndarray | None = None):
    """Component-constrained objective for observed labels:

    log p(x|z_y) - KL[q(z|x,y) || p(z|y)] + ln q(y|x), evaluated at y_obs.
    """
    cache, _, single = _run_forward(x, params, rng, eps, y_obs)
    return float(cache.value[0]) if single else cache.value


def _backward(params: ModelParams, cache: _Cache,
              y_obs: np.ndarray | None) -> tuple[float, FlatBuffers]:
    """Reverse-mode pass for the negative batch-mean objective.

    The gradients get a new vector in the parameters' layout on every call,
    and each of its views is written exactly once.
    """
    arch = params.arch
    b, k, nz = cache.x.shape[0], params.k, arch.n_z
    scale = -1.0 / b
    grads = FlatBuffers(params.shapes, np.empty(params.vector.size))
    bd = cache.breakdown
    q = bd.task_posterior
    rows = np.arange(b)
    loss = float(-np.mean(cache.value))

    if y_obs is None:
        # d total / d r_k = q_k ; d total / d q_k = r_k - ln(q_k K) - 1
        g_r = scale * q
        r = bd.recon_per_component - bd.gauss_kl_per_component
        g_q = scale * (r - (cache.ln_q + np.log(k)) - 1.0)
        g_t = q * (g_q - np.sum(q * g_q, axis=1, keepdims=True))
        g_r_dec = g_r
    else:
        onehot = np.zeros((b, k))
        onehot[rows, y_obs] = 1.0
        g_r = scale * onehot
        g_t = scale * (onehot - q)
        g_r_dec = g_r[rows, y_obs][:, None]

    # Task head.
    np.matmul(g_t.T, cache.h, out=grads["task_w"])
    g_t.sum(axis=0, out=grads["task_b"])
    g_h = g_t @ params["task_w"]

    # Reconstruction branch through the decoder, over the rows it decoded.
    g_o = (g_r_dec[:, :, None] * (cache.x[:, None, :] - cache.p)
           * cache.p_mask).reshape(-1, arch.input_dim)
    *hidden, (w_out, b_out) = params.layers["dec"]
    np.matmul(g_o.T, cache.g, out=grads[w_out])
    g_o.sum(axis=0, out=grads[b_out])
    g_a0 = _dense_relu_backward(g_o @ params[w_out], params, hidden, cache.dec, grads)
    g_z_dec = g_a0 @ params[hidden[0][0]]
    if y_obs is None:
        g_z = g_z_dec.reshape(b, k, nz)
    else:
        g_z = np.zeros((b, k, nz))
        g_z[rows, y_obs] = g_z_dec

    # Gaussian KL branch, which holds the prior table's gradients.
    g_klg = -g_r
    psig = cache.psig[None]
    pmu = params["prior_mu"][None]
    inv_p2 = 1.0 / (psig * psig)
    g_mu = g_klg[:, :, None] * (cache.mu - pmu) * inv_p2
    g_sig = g_klg[:, :, None] * (cache.sig * inv_p2 - 1.0 / cache.sig)
    np.sum(g_klg[:, :, None] * (pmu - cache.mu) * inv_p2, axis=0, out=grads["prior_mu"])
    g_psig = np.sum(
        g_klg[:, :, None]
        * (1.0 / psig - (cache.sig ** 2 + (cache.mu - pmu) ** 2) / psig ** 3),
        axis=0)
    np.multiply(g_psig, sigmoid(params["prior_rho"]), out=grads["prior_rho"])

    # Reparameterization.
    g_mu = g_mu + g_z
    g_sig = g_sig + g_z * cache.eps

    # Latent heads: first half mean, second half softplus pre-variance.
    g_a = np.concatenate([g_mu, g_sig * sigmoid(cache.rho)], axis=2)
    g_a_flat = g_a.reshape(b, k * 2 * nz)
    lat_w = params["lat_w"]
    np.matmul(g_a_flat.T, cache.h, out=grads["lat_w"].reshape(k * 2 * nz, -1))
    g_a.sum(axis=0, out=grads["lat_b"])
    g_h = g_h + g_a_flat @ lat_w.reshape(k * 2 * nz, -1)

    # Shared encoder.
    _dense_relu_backward(g_h, params, params.layers["enc"], cache.enc, grads)

    return loss, grads


def relu_margin(params: ModelParams, x: np.ndarray, eps: np.ndarray) -> float:
    """Smallest |input| of any encoder or decoder ReLU unit at inputs x and noise eps."""
    cache = _forward(params, as_f64(x), eps)
    layers = params.layers["enc"] + params.layers["dec"][:-1]
    return min(float(np.min(np.abs(h @ params[w].T + params[b])))
               for (w, b), (h, _) in zip(layers, cache.enc + cache.dec))


def backward(x: np.ndarray, params: ModelParams, rng: RngState,
             y_obs=None, eps: np.ndarray | None = None):
    """Loss and gradients of the negative batch-mean objective.

    y_obs None selects the marginalized loss; an int array selects the
    component-constrained loss, which decodes only row (i, y_i) of each
    sample. Returns (loss, grads, breakdown). Under the marginalized loss
    the breakdown carries every per-sample quantity of `elbo`; under the
    constrained loss only task_posterior and cat_kl, and the fields that
    need the other components' decodes are None (call `elbo` with the
    same eps for those).
    """
    cache, y, _ = _run_forward(x, params, rng, eps, y_obs)
    loss, grads = _backward(params, cache, y)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    return loss, grads, cache.breakdown


def generate(params: ModelParams, pi: np.ndarray, n: int, rng: RngState):
    """Sample n inputs from the generative model under component prior pi.

    y ~ Cat(pi), z ~ p(z|y), x = decoder Bernoulli means (soft samples).
    Returns (x_gen (n,D), y_gen (n,)).
    """
    pi = as_f64(pi)
    if pi.shape != (params.k,):
        raise ValueError(f"pi length {pi.shape} != K={params.k}")
    if np.any(pi < 0) or abs(float(np.sum(pi)) - 1.0) > 1e-9:
        raise ValueError("pi must be a normalized probability vector")
    y = rng.categorical(pi, n)
    eps = rng.normal((n, params.arch.n_z))
    psig = softplus(params["prior_rho"]) + SIGMA_FLOOR
    z = params["prior_mu"][y] + psig[y] * eps
    return decode(z, params), y
