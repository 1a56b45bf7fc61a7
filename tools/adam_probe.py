"""Wall time of one `adam_step` call on the full-scale and the toy architecture.

Usage: python3 tools/adam_probe.py SRC_DIR

Imports `mixvae` from SRC_DIR (the `src/` directory of a checkout) and
times `adam.adam_step` on the full-scale MNIST net (784 -> 1200 -> 600 ->
300 -> 150 encoder, n_z 32, 500 -> 500 decoder) at K = 1, 10 and 25, and
on the toy-blobs net (16 -> 32 -> 16 encoder, n_z 4, 16 -> 32 decoder) at
K = 4. The gradients come from one `backward` call at batch 8 on seeded
uniform inputs, so the probe runs against whichever gradient and state
types SRC_DIR defines. Each cell is the median of N timed calls after
one untimed call, which creates the moments. BLAS is pinned to one
thread, as in perfbench, so that the numbers do not depend on the
machine's core count.
"""

from __future__ import annotations

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BATCH = 8
# (net, encoder, n_z, decoder, input dim, K, timed calls)
CASES = (
    ("full-scale", (1200, 600, 300, 150), 32, (500, 500), 784, 1, 30),
    ("full-scale", (1200, 600, 300, 150), 32, (500, 500), 784, 10, 30),
    ("full-scale", (1200, 600, 300, 150), 32, (500, 500), 784, 25, 30),
    ("toy", (32, 16), 4, (16, 32), 16, 4, 2000),
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/adam_probe.py SRC_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath(argv[0]))
    import numpy as np
    from mixvae.adam import AdamState, adam_step
    from mixvae.model import Architecture, backward, init_params
    from mixvae.rng import RngState

    print("adam_step ms, one BLAS thread")
    print("| net | K | params | calls | median ms |")
    print("|---|---|---|---|---|")
    for net, encoder, n_z, decoder, dim, k, calls in CASES:
        arch = Architecture(input_dim=dim, encoder=encoder, n_z=n_z, decoder=decoder, k_max=k)
        rng = RngState(0, (k,))
        params = init_params(arch, rng, k_init=k)
        _, grads, _ = backward(rng.uniform(0.0, 1.0, (BATCH, dim)), params, rng)
        state = AdamState()
        adam_step(params, grads, state)
        times = []
        for _ in range(calls):
            t0 = time.perf_counter()
            adam_step(params, grads, state)
            times.append(time.perf_counter() - t0)
        n = sum(buf.size for _, buf in params.buffers())
        print(f"| {net} | {k} | {n:,} | {calls} | {1e3 * float(np.median(times)):.3f} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
