"""Flat binary checkpoints with bit-exact round-trips.

Layout (all little-endian):

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
    parameter buffers, f64, in model.param_spec order
    Adam m then v per buffer, f64, same order (zeros when absent)
    usage accumulated, K x f64

Float payloads are written as numpy '<f8' buffers, so save -> load ->
save is byte-identical.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .adam import AdamState
from .errors import CheckpointError
from .model import Architecture, ModelParams, param_spec
from .replay import UsageCounts
from .rng import ALGORITHM_ID

MAGIC = b"MIXVAE\x01\x00"
VERSION = 1
FLAG_SNAPSHOT = 1


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
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        raw = self.take(8 * n, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def save_checkpoint(path, params: ModelParams, adam: AdamState | None = None,
                    usage: UsageCounts | None = None, step: int = 0,
                    snapshot: bool = False) -> None:
    """Assemble the header in memory, then write it and each float buffer to the file."""
    adam = adam if adam is not None else AdamState()
    usage = usage if usage is not None else UsageCounts(params.k)
    if len(usage.accumulated) != params.k:
        raise CheckpointError("usage counts length disagrees with K")
    arch = params.arch
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, FLAG_SNAPSHOT if snapshot else 0)
    out += ALGORITHM_ID.encode("ascii").ljust(16, b"\x00")
    out += struct.pack("<4d", adam.lr, adam.beta1, adam.beta2, adam.eps)
    out += struct.pack("<QQ", adam.t, step)
    out += struct.pack("<4I", params.k, arch.k_max, arch.n_z, arch.input_dim)
    out += struct.pack("<I", len(arch.encoder))
    out += struct.pack(f"<{len(arch.encoder)}I", *arch.encoder)
    out += struct.pack("<I", len(arch.decoder))
    out += struct.pack(f"<{len(arch.decoder)}I", *arch.decoder)
    out += struct.pack("<Q", usage.total_batches)
    buffers = params.buffers()
    for name, buf in buffers:
        if name in adam.m and not adam.m[name].shape == adam.v[name].shape == buf.shape:
            raise CheckpointError(f"Adam moments of {name} disagree with its shape {buf.shape}")
    # A 1 MB write buffer gathers the many small buffers of a small net
    # into few system calls; larger buffers go to the file directly.
    with open(path, "wb", buffering=1 << 20) as fh:
        fh.write(out)
        for _, buf in buffers:
            _write_array(fh, buf)
        for moments in (adam.m, adam.v):
            for name, buf in buffers:
                _write_array(fh, moments[name] if name in moments else np.zeros_like(buf))
        _write_array(fh, usage.accumulated)


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    if rd.take(8, "magic") != MAGIC:
        raise CheckpointError("bad checkpoint magic")
    version, flags = rd.unpack("<II", "version")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    algo = rd.take(16, "rng algorithm").rstrip(b"\x00").decode("ascii")
    if algo != ALGORITHM_ID:
        raise CheckpointError(f"checkpoint rng algorithm {algo!r} != this build's {ALGORITHM_ID!r}")
    lr, b1, b2, eps = rd.unpack("<4d", "optimizer hyperparameters")
    t, step = rd.unpack("<QQ", "timestep")
    k, k_max, n_z, input_dim = rd.unpack("<4I", "model dims")
    (n_enc,) = rd.unpack("<I", "encoder depth")
    enc = rd.unpack(f"<{n_enc}I", "encoder sizes")
    (n_dec,) = rd.unpack("<I", "decoder depth")
    dec = rd.unpack(f"<{n_dec}I", "decoder sizes")
    (usage_total,) = rd.unpack("<Q", "usage total")

    if not 1 <= k <= k_max or 0 in (n_z, input_dim, n_enc, n_dec) + enc + dec:
        raise CheckpointError(f"bad model dims: K={k}, K_max={k_max}, n_z={n_z}, D={input_dim}, "
                              f"encoder {enc}, decoder {dec}")
    arch = Architecture(input_dim=input_dim, encoder=enc, n_z=n_z, decoder=dec, k_max=k_max)
    spec = param_spec(arch, k)
    bufs = {name: rd.array(shape, name) for name, shape, _ in spec}
    adam = AdamState(lr=lr, beta1=b1, beta2=b2, eps=eps)
    adam.t = t
    adam.m = {name: rd.array(shape, f"adam m {name}") for name, shape, _ in spec}
    adam.v = {name: rd.array(shape, f"adam v {name}") for name, shape, _ in spec}
    usage = UsageCounts(k)
    usage.accumulated = rd.array((k,), "usage counts")
    usage.total_batches = usage_total
    if rd.pos != len(rd.blob):
        raise CheckpointError(f"{len(rd.blob) - rd.pos} bytes after the usage counts")
    return LoadedCheckpoint(ModelParams(arch, k, bufs), adam, usage, int(step),
                            bool(flags & FLAG_SNAPSHOT))
