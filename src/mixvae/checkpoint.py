"""Flat binary checkpoints with bit-exact round-trips.

Layout (all little-endian). The fields from magic through D are the
fixed 96-byte head, one `HEAD` struct:

    magic            8 bytes   b"MIXVAE\\x01\\x00"
    version          u32
    flags            u32       bit 0: file is a replay snapshot
    rng algorithm    16 bytes  NUL-padded ascii, must match this build
    lr, b1, b2, eps  4 x f64   optimizer hyperparameters
    t                u64       optimizer timestep
    step             u64       training step the file was written at
    K, K_max, n_z, D 4 x u32
    n_enc, sizes...  u32 each  encoder layer widths
    n_dec, sizes...  u32 each  decoder hidden widths (output width is D)
    usage_total      u64
    parameter vector, f64: every buffer in model.param_spec order
    Adam m vector, then Adam v vector, f64, same layout (zeros when absent,
                     left as a hole the writer seeks over)
    usage accumulated, K x f64

The three vectors are the `FlatBuffers` vectors of the parameters and
the moments, so the body takes three large writes and the same bytes as
writing each buffer in turn. Float payloads are written as numpy '<f8'
buffers and read back into fresh float64 arrays, so save -> load -> save
is byte-identical. Loading rejects a non-finite value in the four vectors,
optimizer settings that break Adam's rule (`adam.hyperparameter_problem`),
and usage counts that give no replay prior: a negative count, or counts
that sum to 0 after a counted batch.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .adam import AdamState, hyperparameter_problem, zero_moments
from .data import read_le_into
from .errors import CheckpointError
from .model import Architecture, ModelParams, param_spec
from .replay import UsageCounts
from .rng import ALGORITHM_ID

MAGIC = b"MIXVAE\x01\x00"
VERSION = 1
FLAG_SNAPSHOT = 1
HEAD = struct.Struct("<8sII16s4dQQ4I")


@dataclass
class LoadedCheckpoint:
    params: ModelParams
    adam: AdamState
    usage: UsageCounts
    step: int
    is_snapshot: bool


def _write_array(fh, a: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(a, dtype="<f8"))


class _Reader:
    """Typed reads from an open checkpoint file."""

    def __init__(self, fh):
        self.fh = fh

    def take(self, n: int, what: str) -> bytes:
        if n > self.bytes_left():
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        return self.fh.read(n)

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def bytes_left(self) -> int:
        return os.fstat(self.fh.fileno()).st_size - self.fh.tell()


def save_checkpoint(path, params: ModelParams, adam: AdamState | None = None,
                    usage: UsageCounts | None = None, step: int = 0,
                    snapshot: bool = False) -> None:
    """Assemble the header in memory, then write it, the parameter vector,
    both Adam moment vectors and the usage counts to the file.

    Without moments (a snapshot, or an optimizer that has not stepped) the
    writer seeks over their 2n zero floats instead of writing them: the
    file gets a hole, which reads back as zeros, so its bytes are the same.
    """
    adam = adam if adam is not None else AdamState()
    usage = usage if usage is not None else UsageCounts(params.k)
    if len(usage.accumulated) != params.k:
        raise CheckpointError("usage counts length disagrees with K")
    if adam.m:
        for name, shape in params.shapes.items():
            if not adam.m.shapes.get(name) == adam.v.shapes.get(name) == shape:
                raise CheckpointError(f"Adam moments of {name} disagree with its shape {shape}")
    arch = params.arch
    out = bytearray(HEAD.pack(MAGIC, VERSION, FLAG_SNAPSHOT if snapshot else 0,
                              ALGORITHM_ID.encode("ascii"), adam.lr, adam.beta1, adam.beta2,
                              adam.eps, adam.t, step, params.k, arch.k_max, arch.n_z,
                              arch.input_dim))
    for widths in (arch.encoder, arch.decoder):
        out += struct.pack(f"<I{len(widths)}I", len(widths), *widths)
    out += struct.pack("<Q", usage.total_batches)
    with open(path, "wb") as fh:
        fh.write(out)
        _write_array(fh, params.vector)
        if adam.m:
            _write_array(fh, adam.m.vector)
            _write_array(fh, adam.v.vector)
        else:
            fh.seek(2 * 8 * params.vector.size, os.SEEK_CUR)
        _write_array(fh, usage.accumulated)


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        return _read_checkpoint(_Reader(fh))


def _read_checkpoint(rd: _Reader) -> LoadedCheckpoint:
    head = rd.fh.read(HEAD.size)
    if head[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    if len(head) < HEAD.size:
        raise CheckpointError("truncated checkpoint while reading the header")
    (_, version, flags, algo, lr, b1, b2, eps, t, step,
     k, k_max, n_z, input_dim) = HEAD.unpack(head)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    algo = algo.rstrip(b"\x00").decode("ascii", "replace")
    if algo != ALGORITHM_ID:
        raise CheckpointError(f"checkpoint rng algorithm {algo!r} != this build's {ALGORITHM_ID!r}")
    widths = []
    for part in ("encoder", "decoder"):
        (n_layers,) = rd.unpack("<I", f"{part} depth")
        widths.append(rd.unpack(f"<{n_layers}I", f"{part} sizes"))
    enc, dec = widths
    (usage_total,) = rd.unpack("<Q", "usage total")
    if problem := hyperparameter_problem(lr, b1, b2, eps):
        raise CheckpointError(f"checkpoint optimizer {problem}")

    if not 1 <= k <= k_max or not (enc and dec) or 0 in (n_z, input_dim) + enc + dec:
        raise CheckpointError(f"bad model dims: K={k}, K_max={k_max}, n_z={n_z}, D={input_dim}, "
                              f"encoder {enc}, decoder {dec}")
    arch = Architecture(input_dim=input_dim, encoder=enc, n_z=n_z, decoder=dec, k_max=k_max)
    n = sum(math.prod(shape) for _, shape, _ in param_spec(arch, k))
    extra = rd.bytes_left() - 8 * (3 * n + k)
    if extra < 0:
        raise CheckpointError("truncated checkpoint while reading the parameter, moment "
                              "and usage vectors")
    if extra:
        raise CheckpointError(f"{extra} bytes after the usage counts")
    params = ModelParams(arch, k)
    adam = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    adam.t = t
    adam.m, adam.v = zero_moments(params)
    usage = UsageCounts(k)
    usage.total_batches = usage_total
    for field, vector in (("parameter", params.vector), ("Adam m", adam.m.vector),
                          ("Adam v", adam.v.vector), ("usage count", usage.accumulated)):
        read_le_into(rd.fh, vector)
        if not np.isfinite(vector).all():
            raise CheckpointError(f"non-finite {field} value")
    if (usage.accumulated < 0).any() or (usage_total and not usage.accumulated.any()):
        raise CheckpointError(f"usage counts {usage.accumulated.tolist()} are negative or "
                              f"sum to 0 over {usage_total} batches")
    return LoadedCheckpoint(params, adam, usage, int(step), bool(flags & FLAG_SNAPSHOT))
