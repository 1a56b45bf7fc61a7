"""Stable elementwise kernels (log_softmax, softplus, sigmoid), Glorot init,
and a finite-difference oracle; the dense ReLU layers are `model._dense_relu`.

`log_softmax`, `softplus` and `sigmoid` compute in float32 when given float32
arrays (the training step's compute dtype, `arch.compute_dtype`) and in
float64 for everything else; the oracle and the initialiser are float64.
Kernels are pure functions; they either guard against non-finite output
(stable branch forms) or raise NumericError.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError


def as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def as_float(x) -> np.ndarray:
    """x itself when it is a float32 array, else `as_f64(x)`."""
    return x if isinstance(x, np.ndarray) and x.dtype == np.float32 else as_f64(x)


def check_finite(name: str, a: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} contains non-finite values")
    return a


def log_softmax(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """v - m - ln(sum(exp(v - m))) along `axis`, m the max along it; always
    finite for finite inputs. A non-finite max raises NumericError."""
    v = as_float(v)
    m = np.maximum.reduce(v, axis=axis, keepdims=True)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise NumericError("log_softmax requires finite inputs")
    shifted = v - m
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=axis, keepdims=True))


def softplus(x, e: np.ndarray | None = None) -> np.ndarray:
    """ln(1 + e^x) in branch form: max(x,0) + log1p(e), e = e^-|x| (`e` when given).

    Strictly positive for all x above the subnormal underflow point
    (~ -744 in float64, ~ -103 in float32); below that e^x has no
    representation at all.
    """
    x = as_float(x)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)) if e is None else e)


def sigmoid(x, e: np.ndarray | None = None) -> np.ndarray:
    """Logistic function, overflow-safe on both tails.

    With e = exp(-|x|) (`e` when given), 1 / (1 + e) for x >= 0 and
    e / (1 + e) below: one divide of maximum(e, x >= 0), as e <= 1, which
    gives the same bits as the two divides of the branch form.
    """
    x = as_float(x)
    e = np.exp(-np.abs(x)) if e is None else e
    return np.maximum(e, x >= 0) / (1.0 + e)


def glorot_uniform(rng, fan_in: int, fan_out: int, out: np.ndarray) -> None:
    """Uniform Glorot init of `out` in place: U(-a, a), a = sqrt(6 / (fan_in + fan_out)).

    Writes the bits `rng.uniform(-a, a, out.shape)` returns, which numpy
    computes as -a + 2a * U from the draws `random` makes, without a
    temporary as large as `out`.
    """
    a = np.sqrt(6.0 / (fan_in + fan_out))
    rng.gen.random(out=out)
    out *= a - (-a)
    out += -a


def finite_difference_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate. Raises
    NumericError if any evaluation is non-finite.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    x = as_f64(x).copy()
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"non-finite evaluation at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad
