"""Adam optimizer over one flat parameter vector.

Standard published Adam recurrence with bias correction:

    m <- b1*m + (1-b1)*g        m_hat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2      v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)

Parameters, gradients and both moments are `FlatBuffers` of one layout
(`model.param_spec` order), so a step is one pass over four contiguous
vectors. That pass is a C loop (`adam_kernel.c`) that runs, per element
and in order, the operations of the whole-array expressions
`m += (1-b1)*g`, `v += (1-b2)*(g*g)` and
`p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)`, so the update is bitwise what
those expressions give and trained outputs do not move. A float32
gradient (`arch.compute_dtype = float32`) is widened element by element,
which is exact, so the moments and their arithmetic stay float64.
Under float32 the same pass also writes the float32 shadow of the
parameters that `backward` and `elbo` read (`model.StepBuffers`): each
new parameter, rounded to float32, is stored as soon as it is computed,
so a float32 training step passes over the parameter vector once.
The loop is compiled on a process's first `adam_step` with the C compiler
Python was built with, cached in the package's `__pycache__` under a hash
of its source, flags and compiler version, and called through `ctypes`.
Dynamic expansion grows the moments with the parameters
(`model.add_component_rows`), with zero rows for the new component.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import KernelBuildError, ShapeError
from .model import FlatBuffers, ModelParams

DEFAULT_LR = 1e-3
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8
_SOURCE = os.path.join(os.path.dirname(__file__), "adam_kernel.c")
_CACHE_DIR = os.path.join(os.path.dirname(__file__), "__pycache__")
# No -ffast-math, -Ofast or -march=native: they change results, and a
# fast-math object sets flush-to-zero for the whole process when it loads.
# -ffp-contract=off keeps every multiply and add separately rounded;
# -fno-math-errno lets the sqrt vectorise and changes no result.
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_kernels = None  # {gradient dtype: C entry point}, made by the first adam_step


class AdamState:
    """Hyperparameters, timestep and first and second moments.

    The moments are empty until the first step, which creates them with
    `zero_moments`.
    """

    def __init__(self, lr: float = DEFAULT_LR, beta1: float = DEFAULT_BETA1,
                 beta2: float = DEFAULT_BETA2, eps: float = DEFAULT_EPS):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = FlatBuffers({})
        self.v = FlatBuffers({})


def hyperparameter_problem(lr: float, beta1: float, beta2: float, eps: float) -> str | None:
    """The first setting that breaks Adam's rule, as "<name> must be ...";
    None when lr and eps are finite and positive and both betas in [0, 1)."""
    for name, value, ok, rule in (("lr", lr, 0 < lr < np.inf, "finite and positive"),
                                  ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
                                  ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
                                  ("eps", eps, 0 < eps < np.inf, "finite and positive")):
        if not ok:
            return f"{name} must be {rule}, got {value}"
    return None


def zero_moments(params: FlatBuffers) -> tuple[FlatBuffers, FlatBuffers]:
    """Zero first and second moments in the parameters' layout.

    The two vectors are the rows of one (2, n) block, so they are one
    allocation; on the full-scale net it is over 32 MB, a mapping of its
    own under the process memory policy (`model.apply_memory_policy`).
    """
    block = np.zeros((2, params.vector.size))
    return tuple(FlatBuffers(params.shapes, row, params.spans) for row in block)


def _compiler_command() -> list[str]:
    """The C compiler Python was built with, as an argument list."""
    import shlex
    import sysconfig
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _load_kernels() -> dict:
    """The update loop's entry points by gradient dtype, from the cached
    object, which is compiled first when the cache has none for this
    source, these flags and this compiler version."""
    import ctypes
    import hashlib
    import shlex
    import subprocess

    def run(args):
        command = _compiler_command() + args
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as err:
            raise KernelBuildError(f"cannot run the C compiler {shlex.join(command)}: "
                                   f"{err}") from None
        if done.returncode:
            raise KernelBuildError(f"C compiler failed ({done.returncode}): "
                                   f"{shlex.join(command)}\n{done.stderr}")
        return done.stdout

    with open(_SOURCE, "rb") as f:
        key = hashlib.sha256(f.read())
    key.update(" ".join(_FLAGS).encode() + b"\0" + run(["--version"]).encode())
    path = os.path.join(_CACHE_DIR, f"adam_kernel-{key.hexdigest()[:16]}.so")
    if not os.path.exists(path):
        os.makedirs(_CACHE_DIR, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"  # a process writes only its own temporary
        try:
            run([*_FLAGS, "-o", tmp, _SOURCE])
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    lib = ctypes.CDLL(path)
    kernels = {np.dtype(np.float64): lib.adam_step_f64, np.dtype(np.float32): lib.adam_step_f32}
    for fn in kernels.values():
        fn.argtypes = [ctypes.c_void_p] * 5 + [ctypes.c_ssize_t] + [ctypes.c_double] * 8
        fn.restype = None
    return kernels


def adam_step(params: FlatBuffers, grads: FlatBuffers, state: AdamState) -> None:
    """One Adam update of every parameter, in place.

    The float32 shadow of a `ModelParams` is rewritten in the same pass
    when `StepBuffers.adam_shadow` hands it over.

    t increments by exactly 1 per call. Raises ShapeError if the gradient
    or moment vector's length differs from the parameter vector's, if the
    parameter or a moment vector is not a writable float64 vector, or if
    the gradient is neither float64 nor float32: the C loop trusts all of
    these. The first call of a process raises KernelBuildError when the
    loop cannot be compiled.
    """
    global _kernels
    p, g = params.vector, grads.vector
    if g.size != p.size:
        raise ShapeError(f"{g.size} gradients for {p.size} parameters")
    if not state.m:
        state.m, state.v = zero_moments(params)
    m, v = state.m.vector, state.v.vector
    if not m.size == v.size == p.size:
        raise ShapeError(f"Adam moments of {m.size} and {v.size} values for {p.size} parameters")
    for name, a in (("parameter", p), ("first moment", m), ("second moment", v)):
        if a.dtype != np.float64 or not (a.flags.c_contiguous and a.flags.writeable):
            raise ShapeError(f"Adam needs a writable contiguous float64 {name} vector, "
                             f"got {a.dtype}")
    if g.dtype not in (np.float64, np.float32) or not g.flags.c_contiguous:
        raise ShapeError(f"Adam needs a contiguous float64 or float32 gradient, got {g.dtype}")
    if _kernels is None:
        _kernels = _load_kernels()
    w = None  # the float32 shadow to rewrite in the same pass
    if isinstance(params, ModelParams):
        w = params.step_buffers.adam_shadow(params, g.dtype)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    _kernels[g.dtype](p.ctypes.data, g.ctypes.data, m.ctypes.data, v.ctypes.data,
                      None if w is None else w.ctypes.data, p.size,
                      b1, b2, 1.0 - b1, 1.0 - b2, 1.0 - b1 ** state.t, 1.0 - b2 ** state.t,
                      state.lr, state.eps)
