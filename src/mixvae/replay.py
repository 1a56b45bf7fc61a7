"""Generative replay: usage counts, generator snapshots, and replay batches.

The trainer alternates 1:1 between real batches and batches generated
from a snapshot: the generative model frozen at one step (the prior rows
p(z|y) and the decoder p(x|z)) with the usage prior of that step.
Component labels for generation are drawn from that prior: the running
mean of q(y|x) over all real batches seen so far, which favours the
components used the most. In self-supervised mode the sampled component
labels feed back through the component-constrained loss.
"""

from __future__ import annotations

import numpy as np

from .model import GenerativeParams, ModelParams, generate
from .rng import RngState


class UsageCounts:
    """Accumulated batch-mean posteriors per component."""

    def __init__(self, k: int):
        self.accumulated = np.zeros(k)
        self.total_batches = 0

    def update(self, q_batch: np.ndarray) -> None:
        """Add the column-mean of one batch of posteriors (rows sum to 1)."""
        q = np.asarray(q_batch, dtype=np.float64)
        if q.ndim != 2 or q.shape[1] != self.accumulated.shape[0]:
            raise ValueError(f"posterior batch shape {q.shape} does not match K={len(self.accumulated)}")
        # np.allclose(row sums, 1, atol=1e-6) as one bound test; NaN fails it
        if not np.logical_and.reduce(np.abs(np.add.reduce(q, axis=1) - 1.0) <= 1e-6 + 1e-5):
            raise ValueError("posterior rows must sum to 1")
        self.accumulated += np.add.reduce(q, axis=0) / q.shape[0]  # q.mean(axis=0)
        self.total_batches += 1

    def grow(self, new_k: int) -> None:
        """Pad with zeros when the model expands."""
        if new_k < len(self.accumulated):
            raise ValueError("usage counts cannot shrink")
        pad = new_k - len(self.accumulated)
        if pad:
            self.accumulated = np.concatenate([self.accumulated, np.zeros(pad)])

    def prior(self) -> np.ndarray:
        """Replay prior over components; uniform until any batch is counted."""
        if self.total_batches == 0:
            return np.full(len(self.accumulated), 1.0 / len(self.accumulated))
        p = self.accumulated / self.total_batches
        return p / np.add.reduce(p)


class Snapshot:
    """What replay reads, frozen at one step: a copy of the generative model
    (`model.GenerativeParams`: the prior rows and the decoder, not the
    encoder or the task and latent heads) and the replay prior of the
    usage counts."""

    def __init__(self, params: ModelParams, usage: UsageCounts, step: int):
        self.params = GenerativeParams(params)
        self._prior = usage.prior()
        self.step = int(step)

    def prior(self) -> np.ndarray:
        return self._prior


def take_snapshot(params: ModelParams, counts: UsageCounts, step: int) -> Snapshot:
    return Snapshot(params, counts, step)


def replay_step(snapshot: Snapshot, n: int, rng: RngState, smgr: bool):
    """One generated training batch from the snapshot.

    Returns (x_gen, y_obs) where y_obs is the sampled component labels
    when smgr is set (to be fed through the component-constrained loss)
    and None otherwise.
    """
    x_gen, y_gen = generate(snapshot.params, snapshot.prior(), n, rng)
    return x_gen, (y_gen if smgr else None)
