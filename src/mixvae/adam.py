"""Adam optimizer over named parameter buffers.

Standard published Adam recurrence with bias correction:

    m <- b1*m + (1-b1)*g        m_hat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2      v_hat = v / (1 - b2^t)
    p <- p - lr * m_hat / (sqrt(v_hat) + eps)

State is keyed by buffer name so buffers may grow (dynamic expansion
appends component rows; the matching accumulator rows start at zero).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DEFAULT_LR = 1e-3
DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8


class AdamState:
    def __init__(self, lr: float = DEFAULT_LR, beta1: float = DEFAULT_BETA1,
                 beta2: float = DEFAULT_BETA2, eps: float = DEFAULT_EPS):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def ensure(self, name: str, shape: tuple[int, ...]) -> None:
        if name not in self.m:
            self.m[name] = np.zeros(shape)
            self.v[name] = np.zeros(shape)

    def grow_rows(self, name: str, new_shape: tuple[int, ...]) -> None:
        """Pad accumulators with zero rows along axis 0 to match a grown buffer."""
        if name not in self.m:
            self.ensure(name, new_shape)
            return
        old = self.m[name].shape
        if old == tuple(new_shape):
            return
        if old[1:] != tuple(new_shape[1:]) or new_shape[0] < old[0]:
            raise ShapeError(f"cannot grow {name} accumulators {old} -> {tuple(new_shape)}")
        pad = (new_shape[0] - old[0],) + old[1:]
        self.m[name] = np.concatenate([self.m[name], np.zeros(pad)], axis=0)
        self.v[name] = np.concatenate([self.v[name], np.zeros(pad)], axis=0)


def adam_step(params, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One Adam update, in place, over every buffer present in `grads`.

    `params[name]` must give each parameter array (a ModelParams or a dict).

    t increments by exactly 1 per call. Raises ShapeError if a gradient
    or accumulator shape disagrees with its parameter.
    """
    state.t += 1
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient {name} shape {g.shape} != param shape {p.shape}")
        state.ensure(name, p.shape)
        m, v = state.m[name], state.v[name]
        if m.shape != p.shape:
            raise ShapeError(f"accumulator {name} shape {m.shape} != param shape {p.shape}")
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
