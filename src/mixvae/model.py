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

`_dense_relu` is the one dense ReLU stack: the training forward, `encode_shared`
(evaluation, expansion's parent) and `decode` (replay, counter-examples) run it.

`backward`, `elbo` and `supervised_elbo` decode into the `StepBuffers` that
each `ModelParams` owns, and `backward` writes its gradients into their
gradient vector, so a training run's steps allocate no decoder-sized or
parameter-sized array. The gradients `backward` returns are that vector,
which its next call on the same parameters rewrites; the `ElboBreakdown`
fields are new arrays, never views of the buffers.

They compute in the parameters' `compute_dtype`. Under float32 the step
buffers hold a float32 copy of the parameter vector (the shadow), and the
batch and noise are rounded to float32, so the whole forward and backward
pass, its breakdown and its gradient vector (4 bytes per parameter) are
float32. `adam_step` rewrites the shadow as it updates the parameters, so
a call copies the parameter vector only when the shadow is new or was left
stale (see `StepBuffers`). The parameter vector itself stays float64, and
so does every other function here (evaluation, `decode`, `generate`).

`apply_memory_policy`, which `run_train` calls first, gives every array of
4 MiB or more a memory mapping of its own, so the memory of a freed large
array goes back to the system and peak RSS is the memory the run keeps live.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import NumericError, ShapeError
from .kernels import as_f64, glorot_uniform, log_softmax, sigmoid, softplus
from .rng import RngState

# Floor added to every softplus-produced sigma; keeps KL and the
# reparameterization path away from zero variance.
SIGMA_FLOOR = 1e-6
# Bernoulli means are clamped to [BERNOULLI_EPS, 1 - BERNOULLI_EPS]
# before any log-likelihood.
BERNOULLI_EPS = 1e-6
# Elements per block of the Bernoulli head's elementwise passes (256 KB
# per float64 operand), so a block's operands stay in cache from one pass
# to the next. A block holds whole samples: a toy batch is one block.
HEAD_BLOCK = 32768
# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values in bytes `apply_memory_policy` sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 8 << 20
MMAP_THRESHOLD = 4 << 20


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


def _carve(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of `flat`, one per shape, from its start."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class FlatBuffers(Mapping):
    """Named arrays that are reshaped views of one contiguous float64 (or float32) vector.

    The views tile `vector` in the order of `shapes`, so a write through
    `self[name]` reaches the vector, and one pass over the vector (an Adam
    update, a copy, a file write) covers every buffer. `self[name] = a`
    copies `a` into the view. `spans` lists each buffer's (name, start,
    stop, shape); passing them reuses a layout.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], vector: np.ndarray | None = None,
                 spans: tuple | None = None):
        if spans is None:
            shapes, stops = dict(shapes), list(accumulate(map(math.prod, shapes.values())))
            spans = tuple(zip(shapes, [0] + stops[:-1], stops, shapes.values()))
        size = spans[-1][2] if spans else 0
        vector = np.zeros(size) if vector is None else vector
        if (vector.shape != (size,) or vector.dtype not in (np.float64, np.float32)
                or not vector.flags.c_contiguous):
            raise ShapeError(f"{vector.dtype} vector of shape {vector.shape} for a layout "
                             f"of {size} float64 or float32 values")
        self.shapes, self.spans, self.vector = shapes, spans, vector
        self._views = {name: vector[lo:hi].reshape(shape) for name, lo, hi, shape in spans}

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
    vector (`vector`, used as it is, or zeros when None), plus the active
    component count K, the dtype `backward` and `elbo` compute in, and the
    object's own `StepBuffers`, empty until its first decode.
    """

    def __init__(self, arch: Architecture, k: int, vector: np.ndarray | None = None,
                 compute_dtype=np.float64):
        if not 1 <= k <= arch.k_max:
            raise ShapeError(f"K={k} outside [1, K_max={arch.k_max}]")
        shapes = _shapes(arch, k)
        super().__init__(shapes, vector)
        self.arch = arch
        self.k = k
        self.compute_dtype = np.dtype(compute_dtype)
        self.step_buffers = StepBuffers()
        # (weight, bias) names of each "enc" and "dec" dense layer, input side
        # first; the registry lists each dense weight just before its bias.
        names = list(shapes)
        self.layers = {stack: [(w, b) for w, b in zip(names, names[1:])
                               if w.startswith(stack + "_w.")]
                       for stack in ("enc", "dec")}

    def clone(self) -> "ModelParams":
        """Independent copy: one copy of the parameter vector, the same compute
        dtype, empty step buffers."""
        return ModelParams(self.arch, self.k, self.vector.copy(), self.compute_dtype)

    def add_component_copy(self, parent: int) -> None:
        """Append component K+1 as an exact copy of component `parent`."""
        if not (0 <= parent < self.k):
            raise IndexError(f"parent {parent} out of range for K={self.k}")
        if self.k + 1 > self.arch.k_max:
            raise ShapeError(f"expansion beyond capacity K_max={self.arch.k_max}")
        vector = add_component_rows(self.arch, self.k, self.vector, parent)
        self.k += 1
        super().__init__(_shapes(self.arch, self.k), vector)

    def __setitem__(self, name: str, value) -> None:
        """Copy `value` into buffer `name`, which leaves the shadow stale."""
        super().__setitem__(name, value)
        self.step_buffers.mirrored = False


class GenerativeParams(FlatBuffers):
    """A copy of the generative model of `params`: `prior_mu`, `prior_rho`
    and the decoder. `param_spec` lists them last, so they are one slice of
    the parameter vector, copied once. Carries what `generate` and `decode`
    read besides the buffers: `arch`, `k` and the decoder's `layers`.
    """

    def __init__(self, params: ModelParams):
        start = next(lo for name, lo, _, _ in params.spans if name == "prior_mu")
        spans = tuple((name, lo - start, hi - start, shape)
                      for name, lo, hi, shape in params.spans if lo >= start)
        super().__init__({name: shape for name, _, _, shape in spans},
                         params.vector[start:].copy(), spans)
        self.arch, self.k = params.arch, params.k
        self.layers = {"dec": params.layers["dec"]}


def apply_memory_policy() -> None:
    """Give every allocation of `MMAP_THRESHOLD` bytes or more a mapping of
    its own, so a freed large array goes back to the system instead of
    leaving a hole in the heap (glibc's own threshold grows to the largest
    mapped block freed so far). Fixing it would pin the heap's trim
    threshold at 128 KiB, so that is raised above the per-step arrays,
    which are then not faulted in afresh each step. Idempotent; does
    nothing where the C library has no `mallopt` (macOS).
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


class StepBuffers:
    """Work arrays of `backward` and `elbo` in the compute dtype, reused
    from call to call.

    All are views of one block from `np.empty`; under the process memory
    policy (`apply_memory_policy`) a block of `MMAP_THRESHOLD` bytes or
    more is a mapping of its own, which freeing returns to the system
    whole. The views:
    - the gradient vector (`grads`, in the parameters' layout), which
      `backward` rewrites on every call and returns;
    - per decoder hidden layer, the activations and the ReLU mask; in
      reverse, each layer's gradient is written over its input's
      activations;
    - the output layer's logits, which the Bernoulli head overwrites with
      the means and `backward` then with the logits' gradient, and the
      clamp mask;
    - the Bernoulli head's scratch blocks;
    - in a compute dtype other than the parameters' float64, the shadow:
      a copy of the parameter vector in that dtype.
    They hold the marginal decode of a batch, B*K rows, and the
    constrained loss uses their first B rows. `fit` makes the block again
    only when K changes (expansion), a larger batch arrives or the dtype
    changes, so a long-lived object touches no new memory per step.

    `mirrored` says whether the shadow holds the parameter vector's
    current values. `fit` clears it when it makes the block, `weights`
    copies only while it is clear and then sets it, `adam_shadow` keeps it
    set when `adam_step` rewrites the shadow in its update pass (else
    clears it), and `ModelParams.__setitem__` clears it. Code that writes
    the parameter vector any other way must clear it too.
    """

    def __init__(self):
        self.arch: Architecture | None = None
        self.k = 0
        self.rows = 0
        self.dtype = np.dtype(np.float64)
        self.grads: FlatBuffers | None = None
        self.shadow: FlatBuffers | None = None
        self.mirrored = False

    def fit(self, params: ModelParams, batch: int, dtype=np.float64) -> "StepBuffers":
        """Make sure the buffers fit `params` and a batch of `batch` samples in `dtype`."""
        rows, dtype = batch * params.k, np.dtype(dtype)
        if rows <= self.rows and (self.arch, self.k, self.dtype) == (params.arch, params.k, dtype):
            return self
        d, widths, n = params.arch.input_dim, params.arch.decoder, params.vector.size
        block = min(rows * d, max(HEAD_BLOCK, params.k * d))
        n_shadow = 0 if dtype == params.vector.dtype else n
        floats = [(n,), (n_shadow,), *((rows, w) for w in widths), (rows, d), (3, block)]
        bools = [*((rows, w) for w in widths), (rows, d), (block,)]
        n_bytes = dtype.itemsize * sum(math.prod(shape) for shape in floats)
        memory = np.empty(n_bytes + sum(math.prod(shape) for shape in bools), np.uint8)
        grads, shadow, *self.acts, self.out, self.scratch = _carve(
            memory[:n_bytes].view(dtype), floats)
        *self.masks, self.p_mask, self.flags = _carve(memory[n_bytes:].view(np.bool_), bools)
        self.grads = FlatBuffers(params.shapes, grads, params.spans)
        self.shadow = FlatBuffers(params.shapes, shadow, params.spans) if n_shadow else None
        self.arch, self.k, self.rows, self.dtype = params.arch, params.k, rows, dtype
        self.mirrored = False
        return self

    def weights(self, params: ModelParams) -> FlatBuffers:
        """The parameters in the compute dtype: `params` itself in its own
        dtype, else the shadow, copied from `params.vector` unless it
        already mirrors it."""
        if self.shadow is None:
            return params
        if not self.mirrored:
            np.copyto(self.shadow.vector, params.vector)
            self.mirrored = True
        return self.shadow

    def adam_shadow(self, params: ModelParams, grad_dtype) -> np.ndarray | None:
        """The shadow vector for `adam_step` to rewrite as it updates
        `params`, which keeps the shadow mirrored. Only a float32 shadow of
        `params`' size, under a float32 gradient, is handed over (an
        expansion leaves an old-size one until the next `fit`); otherwise
        None, and any shadow is marked stale."""
        shadow = None if self.shadow is None else self.shadow.vector
        self.mirrored = (grad_dtype == np.float32 and shadow is not None
                         and shadow.dtype == np.float32 and shadow.size == params.vector.size)
        return shadow if self.mirrored else None


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
    """Shared representation: the encoder's `_dense_relu` over the flattened input."""
    x = as_f64(x)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != params.arch.input_dim:
        raise ShapeError(f"input dim {h.shape[1]} != encoder input {params.arch.input_dim}")
    h, _ = _dense_relu(h, params, params.layers["enc"])
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


def decode(z: np.ndarray, params: ModelParams | GenerativeParams) -> np.ndarray:
    """Bernoulli mean vector in (0,1)^D, clamped away from {0,1}, from the
    decoder of the model or of its generative copy."""
    z = as_f64(z)
    lead = z.shape[:-1]
    if z.shape[-1] != params.arch.n_z:
        raise ShapeError(f"latent dim {z.shape[-1]} != n_z {params.arch.n_z}")
    *hidden, (w_out, b_out) = params.layers["dec"]
    g, _ = _dense_relu(z.reshape(-1, params.arch.n_z), params, hidden)
    o = g @ params[w_out].T + params[b_out]
    p = np.clip(sigmoid(o), BERNOULLI_EPS, 1.0 - BERNOULLI_EPS)
    return p.reshape(lead + (params.arch.input_dim,))


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

    def squeezed(self) -> "ElboBreakdown":
        return ElboBreakdown(self.task_posterior[0], self.recon_per_component[0],
                             self.gauss_kl_per_component[0], float(self.cat_kl[0]),
                             float(self.total[0]))


@dataclass
class _Cache:
    w: FlatBuffers      # the parameters in the compute dtype
    x: np.ndarray
    enc: list           # (input, relu mask) per encoder layer
    h: np.ndarray
    ln_q: np.ndarray
    ln_qk: np.ndarray   # ln q + ln K, the categorical KL's log term
    rho: np.ndarray
    e_rho: np.ndarray   # exp(-|rho|), which softplus and sigmoid share
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


def _dense_relu(h: np.ndarray, params: FlatBuffers, layers, outs=None) -> tuple[np.ndarray, list]:
    """ReLU MLP over the named (weight, bias) layers; returns the output and
    each layer's (input, mask) for `_dense_relu_backward`.

    Layer i writes its activations and mask into outs[i], an (array, bool
    array) pair, or into new arrays when `outs` is None. The bias add and
    the ReLU run in place and give the bits of `where(a > 0, a, 0.0)`.
    """
    views, cache = params._views, []
    for (w, b), (a, mask) in zip(layers, outs or [(None, None)] * len(layers)):
        a = np.matmul(h, views[w].T, out=a)
        a += views[b]
        mask = np.greater(a, 0.0, out=mask)
        np.fmax(a, 0.0, out=a)  # 0 for a <= 0 and for NaN
        a += 0.0                # and +0.0 where a was -0.0
        cache.append((h, mask))
        h = a
    return h, cache


def _dense_relu_backward(g: np.ndarray, params: FlatBuffers, layers, cache,
                         grads: FlatBuffers) -> np.ndarray:
    """Reverse of `_dense_relu`: write each layer's gradients into its views
    in `grads` and return the gradient with respect to the first layer's
    pre-activation.

    Works in place: `g` is overwritten, and so is each layer's input after
    the first, by the gradient of the layer that produced it.
    """
    views, out = params._views, grads._views
    for i in reversed(range(len(layers))):
        (w, b), (h, mask) = layers[i], cache[i]
        np.multiply(g, mask, out=g)
        np.matmul(g.T, h, out=out[w])
        np.add.reduce(g, axis=0, out=out[b])
        if i:
            g = np.matmul(g, views[w], out=h)
    return g


def _sample_blocks(shape: tuple[int, int, int]) -> list[slice]:
    """Slices of whole samples of a (B, R, D) array, about HEAD_BLOCK elements each."""
    b, r, d = shape
    step = max(1, HEAD_BLOCK // (r * d))
    return [slice(lo, lo + step) for lo in range(0, b, step)]


def _bernoulli_head(x: np.ndarray, p: np.ndarray, p_mask: np.ndarray,
                    bufs: StepBuffers) -> np.ndarray:
    """Bernoulli log-likelihood of x under the (B, R, D) logits `p`, in place.

    Block by block, `p` becomes clip(sigmoid(logits)) and `p_mask` marks
    where the clamp is inactive; returns the (B, R) sums over d of
    x ln p + (1 - x) ln(1 - p). Every element goes through the operations
    of the whole-array expressions in their order, so the bits are theirs.
    """
    recon = np.empty(p.shape[:2], p.dtype)
    for s in _sample_blocks(p.shape):
        pb, mb, xb = p[s], p_mask[s], x[s, None, :]
        e = bufs.scratch[0, :pb.size].reshape(pb.shape)
        t = bufs.scratch[1, :pb.size].reshape(pb.shape)
        one_minus_x = bufs.scratch[2, :xb.size].reshape(xb.shape)
        flag = bufs.flags[:pb.size].reshape(pb.shape)
        # sigmoid, as kernels.sigmoid: maximum(e, o >= 0) / (1 + e), e = exp(-|o|)
        np.abs(pb, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.add(e, 1.0, out=t)
        np.greater_equal(pb, 0.0, out=flag)
        np.maximum(e, flag, out=e)
        np.divide(e, t, out=pb)
        np.greater(pb, BERNOULLI_EPS, out=mb)
        np.less(pb, 1.0 - BERNOULLI_EPS, out=flag)
        mb &= flag
        np.maximum(pb, BERNOULLI_EPS, out=pb)  # the clamp, as np.clip
        np.minimum(pb, 1.0 - BERNOULLI_EPS, out=pb)
        np.log(pb, out=e)
        e *= xb
        np.negative(pb, out=t)
        np.log1p(t, out=t)
        np.subtract(1.0, xb, out=one_minus_x)
        t *= one_minus_x
        e += t
        np.add.reduce(e, axis=2, out=recon[s])
    return recon


def _forward(params: ModelParams, x: np.ndarray, eps: np.ndarray,
             y: np.ndarray | None = None) -> _Cache:
    """Cached forward pass of the marginalized objective, or of the
    component-constrained one at labels y, decoding into `params.step_buffers`
    in `params.compute_dtype`, to which x and eps are rounded."""
    arch = params.arch
    b, k, nz = x.shape[0], params.k, arch.n_z
    if eps.shape != (b, k, nz):
        raise ShapeError(f"eps shape {eps.shape} != {(b, k, nz)}")
    bufs = params.step_buffers.fit(params, b, params.compute_dtype)
    w = bufs.weights(params)
    views = w._views
    x, eps = x.astype(bufs.dtype, copy=False), eps.astype(bufs.dtype, copy=False)

    h, enc = _dense_relu(x, w, params.layers["enc"])

    ln_q = log_softmax(h @ views["task_w"].T + views["task_b"], axis=1)
    q = np.exp(ln_q)

    # All K latent heads as one (B, H) x (H, K*2*n_z) matmul; mu, rho contiguous.
    a = (h @ views["lat_w"].reshape(k * 2 * nz, -1).T).reshape(b, k, 2 * nz)
    mu = a[:, :, :nz] + views["lat_b"][:, :nz]
    rho = a[:, :, nz:] + views["lat_b"][:, nz:]
    e_rho = np.exp(-np.abs(rho))
    sig = softplus(rho, e_rho) + SIGMA_FLOOR
    z = mu + sig * eps

    # Decode every (sample, component) row, or only row (i, y_i) per sample,
    # into the leading rows of the buffers.
    z_dec = z.reshape(b * k, nz) if y is None else z[np.arange(b), y]
    n = z_dec.shape[0]
    *hidden, (w_out, b_out) = params.layers["dec"]
    g, dec = _dense_relu(z_dec, w, hidden,
                         [(act[:n], mask[:n]) for act, mask in zip(bufs.acts, bufs.masks)])
    o = np.matmul(g, views[w_out].T, out=bufs.out[:n])
    o += views[b_out]
    p = o.reshape(b, -1, arch.input_dim)
    p_mask = bufs.p_mask[:n].reshape(p.shape)
    recon = _bernoulli_head(x, p, p_mask, bufs)

    psig = softplus(views["prior_rho"]) + SIGMA_FLOOR
    delta = (mu - views["prior_mu"]) / psig
    klg = np.add.reduce(np.log(psig / sig) + 0.5 * ((sig / psig) ** 2 + delta * delta) - 0.5,
                        axis=2)

    ln_qk = ln_q + bufs.dtype.type(np.log(k))  # np.log(k) alone would widen float32
    cat_kl = np.add.reduce(q * ln_qk, axis=1)
    if y is None:
        value = np.add.reduce(q * (recon - klg), axis=1) - cat_kl
        breakdown = ElboBreakdown(q, recon, klg, cat_kl, value)
    else:
        rows = np.arange(b)
        value = recon[:, 0] - klg[rows, y] + ln_q[rows, y]
        breakdown = ElboBreakdown(q, None, None, cat_kl, None)
    return _Cache(w, x, enc, h, ln_q, ln_qk, rho, e_rho, mu, sig, eps, dec, g, p, p_mask, psig,
                  value, breakdown)


def draw_eps(params: ModelParams, batch: int, rng: RngState) -> np.ndarray:
    """One reparameterization noise block per sample per component."""
    return rng.normal((batch, params.k, params.arch.n_z))


def _run_forward(x, params: ModelParams, rng: RngState, eps, y_obs=None):
    """Checked cached forward pass into `params.step_buffers`; a single
    sample runs as a batch of one.

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

    The gradients are written into the step buffers' gradient vector, in
    the parameters' layout and the compute dtype, and each of its views is
    written exactly once. The decoder's work arrays in the cache are
    overwritten on the way.
    """
    arch, views, dtype = params.arch, cache.w._views, cache.x.dtype
    b, k, nz = cache.x.shape[0], params.k, arch.n_z
    scale = -1.0 / b
    grads = params.step_buffers.grads
    out = grads._views
    bd = cache.breakdown
    q = bd.task_posterior
    loss = -(float(np.add.reduce(cache.value)) / b)

    if y_obs is None:
        # d total / d r_k = q_k ; d total / d q_k = r_k - ln(q_k K) - 1
        g_r = scale * q
        r = bd.recon_per_component - bd.gauss_kl_per_component
        g_q = scale * (r - cache.ln_qk - 1.0)
        g_t = q * (g_q - np.add.reduce(q * g_q, axis=1, keepdims=True))
        g_r_dec = g_r
    else:
        rows = np.arange(b)
        onehot = np.zeros((b, k), dtype)
        onehot[rows, y_obs] = 1.0
        g_r = scale * onehot
        g_t = scale * (onehot - q)
        g_r_dec = g_r[rows, y_obs][:, None]

    # Task head.
    np.matmul(g_t.T, cache.h, out=out["task_w"])
    np.add.reduce(g_t, axis=0, out=out["task_b"])
    g_h = g_t @ views["task_w"]

    # Reconstruction branch through the decoder, over the rows it decoded: the
    # logits' gradient g_r (x - p) where the clamp is inactive, over p by blocks.
    for s in _sample_blocks(cache.p.shape):
        np.subtract(cache.x[s, None, :], cache.p[s], out=cache.p[s])
        cache.p[s] *= g_r_dec[s, :, None]
        cache.p[s] *= cache.p_mask[s]
    g_o = cache.p.reshape(-1, arch.input_dim)
    *hidden, (w_out, b_out) = params.layers["dec"]
    np.matmul(g_o.T, cache.g, out=out[w_out])
    np.add.reduce(g_o, axis=0, out=out[b_out])
    g_a0 = _dense_relu_backward(np.matmul(g_o, views[w_out], out=cache.g), cache.w, hidden,
                                cache.dec, grads)
    g_z_dec = g_a0 @ views[hidden[0][0]]
    if y_obs is None:
        g_z = g_z_dec.reshape(b, k, nz)
    else:
        g_z = np.zeros((b, k, nz), dtype)
        g_z[rows, y_obs] = g_z_dec

    # Gaussian KL branch, which holds the prior table's gradients.
    g_klg = -g_r[:, :, None]
    psig, sig, d = cache.psig, cache.sig, cache.mu - views["prior_mu"]
    inv_p2 = 1.0 / (psig * psig)
    np.add.reduce(g_klg * (views["prior_mu"] - cache.mu) * inv_p2, axis=0, out=out["prior_mu"])
    g_psig = np.add.reduce(g_klg * (1.0 / psig - (sig ** 2 + d ** 2) / psig ** 3), axis=0)
    np.multiply(g_psig, sigmoid(views["prior_rho"]), out=out["prior_rho"])

    # Reparameterization.
    g_mu = g_klg * d * inv_p2 + g_z
    g_sig = g_klg * (sig * inv_p2 - 1.0 / sig) + g_z * cache.eps

    # Latent heads: first half mean, second half softplus pre-variance.
    g_a = np.concatenate([g_mu, g_sig * sigmoid(cache.rho, cache.e_rho)], axis=2)
    g_a_flat = g_a.reshape(b, k * 2 * nz)
    np.matmul(g_a_flat.T, cache.h, out=out["lat_w"].reshape(k * 2 * nz, -1))
    np.add.reduce(g_a, axis=0, out=out["lat_b"])
    g_h += g_a_flat @ views["lat_w"].reshape(k * 2 * nz, -1)

    # Shared encoder.
    _dense_relu_backward(g_h, cache.w, params.layers["enc"], cache.enc, grads)

    return loss, grads


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

    The grads are the gradient vector of `params.step_buffers`, in the
    compute dtype: the next `backward` on the same `params` rewrites them
    (copy them to keep them). They never share memory with `params.vector`,
    the shadow or another `ModelParams`' gradients. The breakdown's fields
    are new arrays.
    """
    cache, y, _ = _run_forward(x, params, rng, eps, y_obs)
    loss, grads = _backward(params, cache, y)
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss {loss}")
    return loss, grads, cache.breakdown


def generate(params: ModelParams | GenerativeParams, pi: np.ndarray, n: int, rng: RngState):
    """Sample n inputs from the generative model under component prior pi.

    y ~ Cat(pi), z ~ p(z|y), x = decoder Bernoulli means (soft samples).
    `params` is the model or its generative copy (a replay snapshot's).
    Returns (x_gen (n,D), y_gen (n,)).
    """
    pi = as_f64(pi)
    if pi.shape != (params.k,):
        raise ValueError(f"pi length {pi.shape} != K={params.k}")
    if not (np.minimum.reduce(pi) >= 0 and abs(float(np.add.reduce(pi)) - 1.0) <= 1e-9):
        raise ValueError("pi must be a normalized probability vector")
    y = rng.categorical(pi, n)
    eps = rng.normal((n, params.arch.n_z))
    psig = softplus(params["prior_rho"]) + SIGMA_FLOOR
    z = params["prior_mu"][y] + psig[y] * eps
    return decode(z, params), y
