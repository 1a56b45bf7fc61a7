"""Dynamic capacity expansion driven by poorly-modelled samples.

Any real-data sample whose objective value falls below a threshold is
stored until it expires (a training run sets the age limit to one
consolidation period). When the store fills (and a consolidation period
has elapsed, and capacity remains), a new component is instantiated as
a copy of the existing component with greatest posterior mass over the
stored set, then finetuned to that set with the component-constrained
loss, against counter-examples from the pre-expansion model when replay
is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adam import AdamState, adam_step, zero_moments
from .data import Batch
from .errors import ConfigError, StateError
from .model import (
    ModelParams,
    add_component_rows,
    backward,
    encode_shared,
    generate,
    infer_task_posterior,
)
from .replay import UsageCounts
from .rng import RngState


class PoorSampleBuffer:
    """Bounded store of inputs whose objective fell below the threshold.

    A sample stored at step s is dropped by the first screening at a step
    t with t - s >= max_age, so the buffer fills only when `capacity`
    poorly-modelled samples arrive within `max_age` steps: a burst, as at
    the onset of a new concept, rather than the slow tail of a concept
    the model already knows.
    """

    def __init__(self, capacity: int, threshold: float, max_age: int):
        if capacity < 1:
            raise ValueError("buffer capacity must be positive")
        if max_age < 1:
            raise ValueError("buffer max_age must be positive")
        self.capacity = int(capacity)
        self.threshold = float(threshold)
        self.max_age = int(max_age)
        self.samples: list[np.ndarray] = []
        self.steps: list[int] = []

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def full(self) -> bool:
        return len(self.samples) >= self.capacity

    def clear(self) -> None:
        self.samples = []
        self.steps = []

    def expire(self, step: int) -> None:
        """Drop the samples stored max_age or more steps before `step`."""
        keep = [i for i, s in enumerate(self.steps) if step - s < self.max_age]
        if len(keep) < len(self.steps):
            self.samples = [self.samples[i] for i in keep]
            self.steps = [self.steps[i] for i in keep]

    def as_matrix(self) -> np.ndarray:
        if not self.samples:
            raise StateError("buffer is empty")
        return np.stack(self.samples)


@dataclass
class ExpansionState:
    consolidation_period: int = 100
    finetune_iters: int = 100
    finetune_batch: int = 64
    steps_since_last_expansion: int = 0
    expansion_log: list[tuple[int, int, int]] = field(default_factory=list)  # (step, parent, new K)


def screen_batch(x: np.ndarray, elbo_totals: np.ndarray, buffer: PoorSampleBuffer,
                 step: int) -> int:
    """Expire old samples, then store each sample with objective below the
    threshold until full.

    Applies to real-data batches only; generated batches must not be
    screened. `step` is the training step of the batch, which the
    buffer's expiry is measured in. Returns the number of samples stored.
    """
    x = np.asarray(x, dtype=np.float64)
    totals = np.asarray(elbo_totals, dtype=np.float64).reshape(-1)
    if x.shape[0] != totals.shape[0]:
        raise ValueError(f"batch size {x.shape[0]} != elbo count {totals.shape[0]}")
    buffer.expire(step)
    rows = np.flatnonzero(totals < buffer.threshold)[:buffer.capacity - len(buffer)]
    buffer.samples.extend(x[rows])
    buffer.steps.extend([int(step)] * len(rows))
    return len(rows)


def should_expand(buffer: PoorSampleBuffer, state: ExpansionState, params: ModelParams) -> bool:
    return (buffer.full
            and state.steps_since_last_expansion >= state.consolidation_period
            and params.k < params.arch.k_max)


def posterior_mass(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """sum over samples of q(y=k|x), one entry per component."""
    q = infer_task_posterior(encode_shared(x, params), params)
    return q.sum(axis=0)


def select_parent(buffer: PoorSampleBuffer, params: ModelParams) -> int:
    """Component with greatest posterior mass over the buffer; ties to lowest index.
    Raises StateError on an empty buffer."""
    return int(np.argmax(posterior_mass(buffer.as_matrix(), params)))


def add_component(params: ModelParams, adam: AdamState, usage: UsageCounts,
                  state: ExpansionState, parent: int, step: int) -> None:
    """Append component K+1 as an exact copy of `parent`, pad the optimizer
    and usage rows with zeros to the new K, and log the event. An optimizer
    that has not stepped yet has no moments to pad."""
    k = params.k
    params.add_component_copy(parent)
    if adam.m:
        m, v = zero_moments(params)
        add_component_rows(params.arch, k, adam.m.vector, out=m.vector)
        add_component_rows(params.arch, k, adam.v.vector, out=v.vector)
        adam.m, adam.v = m, v
    usage.grow(params.k)
    state.expansion_log.append((int(step), parent, params.k))


def expand_to_labels(params: ModelParams, adam: AdamState, usage: UsageCounts,
                     state: ExpansionState, batch: Batch) -> None:
    """Label-triggered expansion for supervised runs.

    Components stay aligned to class labels: when label K first appears
    it becomes component K, copied from the existing component with the
    greatest posterior mass over the batch samples carrying that label.
    """
    for label in range(params.k, int(batch.labels.max()) + 1):
        if label >= params.arch.k_max:
            raise ConfigError(f"label {label} exceeds capacity K_max={params.arch.k_max}")
        members = batch.x[batch.labels == label]
        if len(members) == 0:
            raise ConfigError(f"labels skipped value {label}; supervised runs need "
                              "contiguous label introduction")
        parent = int(np.argmax(posterior_mass(members, params)))
        add_component(params, adam, usage, state, parent, batch.step)


def expand(params: ModelParams, adam: AdamState, usage: UsageCounts,
           buffer: PoorSampleBuffer, state: ExpansionState, rng: RngState, step: int,
           replay_prior: np.ndarray | None = None) -> int:
    """Instantiate component K+1 from the best parent and finetune to the buffer.

    The new component's rows are exact copies of the parent's, with zero
    optimizer and usage rows (`add_component`). Finetuning runs the
    component-constrained loss on minibatches, updating all parameters
    with the run's ongoing optimizer state. Each minibatch holds buffer
    samples, drawn with replacement and labelled with the new component.

    With replay on, `replay_prior` is the usage prior over the K existing
    components, and the second half of each minibatch is counter-examples:
    samples generated by the pre-expansion model under that prior, each
    labelled with the component it was sampled from. The ln q(y|x) term
    then learns to tell the buffer apart from what the model already
    knew, rather than raising q(new|x) for every input, and the parent
    keeps its own samples. Without replay (`replay_prior` None) the whole
    minibatch is buffer samples and no generated sample is drawn.

    Clears the buffer and resets the consolidation counter. Returns the
    parent index.
    """
    if not should_expand(buffer, state, params):
        raise StateError("expansion preconditions not met")
    parent = select_parent(buffer, params)
    data = buffer.as_matrix()

    n = data.shape[0]
    bsz = min(state.finetune_batch, n)
    n_real = bsz if replay_prior is None else bsz - bsz // 2
    n_gen = bsz - n_real
    if n_gen:
        # Drawn before the copy, so they come from the pre-expansion model.
        x_gen, y_gen = generate(params, replay_prior, n_gen * state.finetune_iters, rng)

    add_component(params, adam, usage, state, parent, step)

    y = np.full(bsz, params.k - 1, dtype=np.int64)
    for i in range(state.finetune_iters):
        x = data[rng.integers(n, size=n_real)]
        if n_gen:
            gen = slice(i * n_gen, (i + 1) * n_gen)
            x = np.concatenate([x, x_gen[gen]])
            y[n_real:] = y_gen[gen]
        _, grads, _ = backward(x, params, rng, y_obs=y)
        adam_step(params, grads, adam)

    buffer.clear()
    state.steps_since_last_expansion = 0
    return parent
