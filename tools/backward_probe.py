"""Wall time of one `backward` call, and of one Adam step, on the
full-scale MNIST architecture, and of one `backward` call on two small nets.

Usage: python3 tools/backward_probe.py SRC_DIR

Imports `mixvae` from SRC_DIR (the `src/` directory of a checkout) and
times `model.backward` at batch 64 on the 784 -> 1200 -> 600 -> 300 -> 150
encoder, n_z 32 and the 500 -> 500 decoder, for K = 1, 10 and 25, under
the marginalized loss and under the component-constrained loss (labels
drawn uniformly over the K components), in each compute dtype
(`ModelParams.compute_dtype`: float64, and float32 as the full-scale
presets train). Inputs are seeded uniform values in [0, 1]. Each cell
is the median wall time of 5 timed calls after one untimed call, then
the minor page faults and the system CPU time per timed call
(`resource.getrusage` over the 5 calls). The table also times
`adam.adam_step` the same way, on the gradient vector that cell's
`backward` calls rewrite in the parameters' step buffers (a fresh
`AdamState`, whose untimed first call makes the moments), and sums the
two medians into the marginal step's ms. As in
training, a float32 `backward` reads the shadow that the call before it
or `adam_step` left mirroring the parameters, so it copies none. Before
the table it prints the one-off cost of the process's first `adam_step`
(on one parameter), which builds the compiled update or loads it from
the checkout's cache.

A second table times the calls whose cost is per-call overhead rather
than arithmetic, in microseconds: the toy net of the blob presets
(16 -> 32 -> 16 encoder, n_z 4, 16 -> 32 decoder, batch 64, K 4) and
the gradcheck net (6 -> 5 -> 4 encoder, n_z 2, 4 -> 5 decoder, batch 2,
K 3), in float64. Each cell is the median over 25 rounds of the mean of 40 calls.
BLAS is pinned to one thread, as in perfbench, so that the numbers do
not depend on the machine's core count.
"""

from __future__ import annotations

import itertools
import os
import resource
import sys
import time
from functools import partial

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BATCH = 64
KS = (1, 10, 25)
DTYPES = ("float64", "float32")
REPEATS = 5
# (name, Architecture keywords, batch, K) of the small nets.
SMALL_NETS = (
    ("toy", dict(input_dim=16, encoder=(32, 16), n_z=4, decoder=(16, 32), k_max=8), 64, 4),
    ("gradcheck", dict(input_dim=6, encoder=(5, 4), n_z=2, decoder=(4, 5), k_max=4), 2, 3),
)
ROUNDS, CALLS = 25, 40


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/backward_probe.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    import numpy as np
    from mixvae.adam import AdamState, adam_step
    from mixvae.model import Architecture, FlatBuffers, backward, draw_eps, init_params
    from mixvae.rng import RngState

    t0 = time.perf_counter()
    adam_step(FlatBuffers({"w": (1,)}), FlatBuffers({"w": (1,)}), AdamState())
    print(f"first adam_step of the process (kernel build or load): "
          f"{1e3 * (time.perf_counter() - t0):.1f} ms\n")
    arch = Architecture(input_dim=784, encoder=(1200, 600, 300, 150), n_z=32,
                        decoder=(500, 500), k_max=max(KS))
    print(f"backward and adam_step ms (median of {REPEATS}), minor faults and system ms per call; "
          f"batch {BATCH}, one BLAS thread")
    print("| K | dtype | marginal loss | constrained loss | adam_step | marginal step |")
    print("|---|---|---|---|---|---|")
    for k, dtype in itertools.product(KS, DTYPES):
        rng = RngState(0, (k,))
        params = init_params(arch, rng, k_init=k)
        params.compute_dtype = np.dtype(dtype)
        x = rng.uniform(0.0, 1.0, (BATCH, arch.input_dim))
        eps = draw_eps(params, BATCH, rng)
        y = rng.integers(k, size=BATCH)
        grads = backward(x, params, None, eps=eps)[1]
        calls = [partial(backward, x, params, None, y_obs=y_obs, eps=eps) for y_obs in (None, y)]
        calls.append(partial(adam_step, params, grads, AdamState()))
        cells, medians = [], []
        for call in calls:
            call()
            times = []
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                call()
                times.append(time.perf_counter() - t0)
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            faults = (r1.ru_minflt - r0.ru_minflt) / REPEATS
            sys_ms = 1e3 * (r1.ru_stime - r0.ru_stime) / REPEATS
            medians.append(1e3 * float(np.median(times)))
            cells.append(f"{medians[-1]:.0f} ms, {faults:.0f} faults, {sys_ms:.1f} sys ms")
        print(f"| {k} | {dtype} | {' | '.join(cells)} | {medians[0] + medians[2]:.0f} ms |")

    print(f"\nbackward us (median over {ROUNDS} rounds of {CALLS} calls), one BLAS thread")
    print("| net | batch | K | marginal loss | constrained loss |")
    print("|---|---|---|---|---|")
    for name, shape, batch, k in SMALL_NETS:
        rng = RngState(1, (k,))
        params = init_params(Architecture(**shape), rng, k_init=k)
        x = rng.uniform(0.0, 1.0, (batch, shape["input_dim"]))
        eps = draw_eps(params, batch, rng)
        y = rng.integers(k, size=batch)
        cells = []
        for y_obs in (None, y):
            backward(x, params, None, y_obs=y_obs, eps=eps)
            rounds = []
            for _ in range(ROUNDS):
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    backward(x, params, None, y_obs=y_obs, eps=eps)
                rounds.append((time.perf_counter() - t0) / CALLS)
            cells.append(f"{1e6 * float(np.median(rounds)):.0f} us")
        print(f"| {name} | {batch} | {k} | {cells[0]} | {cells[1]} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
