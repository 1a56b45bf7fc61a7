"""Experiment configuration: plain-text key/value files with dotted keys.

Grammar: one `key = value` pair per line; blank lines and lines starting
with '#' are ignored; keys are dotted section paths from the schema
below. Unknown keys, duplicate keys, malformed values, and out-of-range
values are all rejected. serialize() emits every key in schema order,
so serialize(parse(text)) is the canonical form of a config file.

Value syntax per type: int / float literals; bools as true/false; lists
of ints comma-separated (empty string for an empty list); class pairs
as `a:b` comma-separated.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields

from .adam import hyperparameter_problem
from .data import STREAM_MODES
from .errors import ConfigError


@dataclass
class DataConfig:
    source: str = "blobs"          # idx | matrix | blobs
    dir: str = ""                  # empty resolves to $MIXVAE_DATA or "."
    train_images: str = "train-images-idx3-ubyte"
    train_labels: str = "train-labels-idx1-ubyte"
    test_images: str = "t10k-images-idx3-ubyte"
    test_labels: str = "t10k-labels-idx1-ubyte"
    train_matrix: str = "train.mvds"
    test_matrix: str = "test.mvds"
    n_valid: int = 10000
    blob_classes: int = 4
    blob_dim: int = 16
    blob_noise: float = 0.05
    blob_factor_dim: int = 2
    blob_factor_scale: float = 0.15
    blob_train_per_class: int = 2000
    blob_test_per_class: int = 400


@dataclass
class StreamConfig:
    mode: str = "sequential"       # iid | sequential | continuous_drift | split_task
    total_steps: int = 100000
    batch_size: int = 64
    class_order: tuple = ()        # empty selects natural order 0..C-1
    drift_window: int = 0          # 0 selects 0.2 * block
    task_pairs: tuple = ()         # empty selects consecutive pairs


@dataclass
class ArchConfig:
    encoder: tuple = (1200, 600, 300, 150)
    decoder: tuple = (500, 500)
    n_z: int = 32
    k_init: int = 1
    k_max: int = 25
    compute_dtype: str = "float64"  # float64 | float32: the training step's forward and backward


@dataclass
class OptConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass
class ExpansionConfig:
    enabled: bool = True
    c_new: float = -200.0
    n_new: int = 100
    consolidation: int = 100
    finetune_iters: int = 100
    finetune_batch: int = 64


@dataclass
class ReplayConfig:
    mode: str = "off"              # off | mgr | smgr
    snapshot: str = "fixed"        # fixed | dynamic
    snapshot_period: int = 10000


@dataclass
class EvalConfig:
    cadence: int = 500
    knn_train_subsample: int = 10000
    knn_test_subsample: int = 0    # 0 = full test set
    latent_mode: str = "sampled"   # sampled | mean


@dataclass
class ExperimentConfig:
    mode: str = "unsupervised"     # unsupervised | supervised
    seed: int = 0
    out_dir: str = "runs/default"
    data: DataConfig = field(default_factory=DataConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    arch: ArchConfig = field(default_factory=ArchConfig)
    opt: OptConfig = field(default_factory=OptConfig)
    expansion: ExpansionConfig = field(default_factory=ExpansionConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)


_SECTIONS = ("data", "stream", "arch", "opt", "expansion", "replay", "eval")

_CHOICES = {
    "mode": ("unsupervised", "supervised"),
    "data.source": ("idx", "matrix", "blobs"),
    "stream.mode": STREAM_MODES,
    "arch.compute_dtype": ("float64", "float32"),
    "replay.mode": ("off", "mgr", "smgr"),
    "replay.snapshot": ("fixed", "dynamic"),
    "eval.latent_mode": ("sampled", "mean"),
}

_POSITIVE = {
    "stream.total_steps", "stream.batch_size", "arch.n_z", "arch.k_init",
    "arch.k_max", "expansion.n_new", "expansion.finetune_batch",
    "replay.snapshot_period", "eval.cadence", "data.blob_classes",
    "data.blob_dim", "data.blob_train_per_class", "data.blob_test_per_class",
}

_NONNEGATIVE = {
    "seed", "data.n_valid", "stream.drift_window", "expansion.consolidation",
    "expansion.finetune_iters", "eval.knn_train_subsample",
    "eval.knn_test_subsample", "data.blob_factor_dim", "data.blob_factor_scale",
}


def _schema() -> list[tuple[str, type]]:
    """(flat key, python type) pairs in declaration (serialization) order."""
    out = []
    for f in fields(ExperimentConfig):
        if f.name in _SECTIONS:
            section = f.default_factory()
            for sf in fields(section):
                out.append((f"{f.name}.{sf.name}", type(getattr(section, sf.name))))
        else:
            out.append((f.name, f.type if isinstance(f.type, type) else type(f.default)))
    return out


SCHEMA = _schema()
_SCHEMA_TYPES = dict(SCHEMA)


def _parse_value(key: str, text: str):
    typ = _SCHEMA_TYPES[key]
    text = text.strip()
    try:
        if typ is bool:
            if text not in ("true", "false"):
                raise ValueError
            return text == "true"
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
        if typ is tuple:
            if text == "":
                return ()
            if key == "stream.task_pairs":
                return tuple(tuple(int(p) for p in item.split(":")) for item in text.split(","))
            return tuple(int(v) for v in text.split(","))
        return text
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}") from None


def _format_value(key: str, value) -> str:
    typ = _SCHEMA_TYPES[key]
    if typ is bool:
        return "true" if value else "false"
    if typ is tuple:
        if key == "stream.task_pairs":
            return ",".join(f"{a}:{b}" for a, b in value)
        return ",".join(str(v) for v in value)
    if typ is float:
        return repr(float(value))
    return str(value)


def _get(cfg: ExperimentConfig, key: str):
    obj = cfg
    *path, attr = key.split(".")
    for p in path:
        obj = getattr(obj, p)
    return getattr(obj, attr)


def _set(cfg: ExperimentConfig, key: str, value) -> None:
    obj = cfg
    *path, attr = key.split(".")
    for p in path:
        obj = getattr(obj, p)
    setattr(obj, attr, value)


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    for key, typ in SCHEMA:
        if typ is float and not math.isfinite(_get(cfg, key)):
            raise ConfigError(f"{key} must be finite, got {_get(cfg, key)}")
    if problem := hyperparameter_problem(cfg.opt.lr, cfg.opt.beta1, cfg.opt.beta2, cfg.opt.eps):
        raise ConfigError(f"opt.{problem}")
    for key, choices in _CHOICES.items():
        v = _get(cfg, key)
        if v not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {v!r}")
    for key in _POSITIVE:
        v = _get(cfg, key)
        if not v > 0:
            raise ConfigError(f"{key} must be positive, got {v}")
    for key in _NONNEGATIVE:
        v = _get(cfg, key)
        if v < 0:
            raise ConfigError(f"{key} must be nonnegative, got {v}")
    if not cfg.arch.encoder or not cfg.arch.decoder:
        raise ConfigError("arch.encoder and arch.decoder need at least one layer")
    if any(s < 1 for s in cfg.arch.encoder + cfg.arch.decoder):
        raise ConfigError("layer sizes must be positive")
    if cfg.arch.k_init > cfg.arch.k_max:
        raise ConfigError(f"arch.k_init {cfg.arch.k_init} exceeds arch.k_max {cfg.arch.k_max}")
    if any(len(p) != 2 for p in cfg.stream.task_pairs):
        raise ConfigError("stream.task_pairs entries must be class pairs a:b")
    if cfg.mode == "supervised" and cfg.stream.mode != "split_task":
        raise ConfigError("supervised mode requires stream.mode = split_task")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        _set(cfg, key, _parse_value(key, value))
    return validate_config(cfg)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {_format_value(key, _get(cfg, key))}" for key, _ in SCHEMA]
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply `key=value` strings (CLI --set) on top of a config."""
    cfg = copy.deepcopy(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in _SCHEMA_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        _set(cfg, key, _parse_value(key, value))
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# Presets. Overrides are applied to the defaults above.

_FULL_MNIST = {
    "data.source": "idx",
    "stream.mode": "sequential",
    "stream.total_steps": 100000,
    "stream.batch_size": 64,
    "arch.encoder": (1200, 600, 300, 150),
    "arch.decoder": (500, 500),
    "arch.n_z": 32,
    "arch.k_max": 25,
    "arch.compute_dtype": "float32",
    "opt.lr": 1e-3,
    "expansion.c_new": -200.0,
    "eval.cadence": 2500,
}

_TOY_BLOBS = {
    "data.source": "blobs",
    "data.n_valid": 0,
    "stream.mode": "sequential",
    "stream.total_steps": 6000,
    "stream.batch_size": 64,
    "arch.encoder": (32, 16),
    "arch.decoder": (16, 32),
    "arch.n_z": 4,
    "arch.k_max": 8,
    "expansion.c_new": -14.0,
    "eval.cadence": 500,
    "eval.knn_train_subsample": 4000,
}

_MNIST3 = {
    "data.source": "idx",
    "stream.mode": "sequential",
    "stream.total_steps": 4500,
    "stream.batch_size": 64,
    "stream.class_order": (0, 1, 2),
    "arch.encoder": (256, 128),
    "arch.decoder": (128, 256),
    "arch.n_z": 16,
    "arch.k_max": 10,
    "expansion.c_new": -200.0,
    "eval.cadence": 1500,
    "eval.knn_train_subsample": 2000,
    "eval.knn_test_subsample": 2000,
}

PRESETS: dict[str, dict] = {
    # Full-scale protocols (hours on CPU; documented in the README).
    "mnist-seq-mgr-fixedT": dict(_FULL_MNIST, **{
        "replay.mode": "mgr", "replay.snapshot": "fixed", "replay.snapshot_period": 10000}),
    "mnist-seq-mgr-fixed01T": dict(_FULL_MNIST, **{
        "replay.mode": "mgr", "replay.snapshot": "fixed", "replay.snapshot_period": 1000}),
    "mnist-seq-mgr-dyn": dict(_FULL_MNIST, **{
        "replay.mode": "mgr", "replay.snapshot": "dynamic"}),
    "mnist-seq-smgr-fixedT": dict(_FULL_MNIST, **{
        "replay.mode": "smgr", "replay.snapshot": "fixed", "replay.snapshot_period": 10000}),
    "mnist-seq-smgr-fixed01T": dict(_FULL_MNIST, **{
        "replay.mode": "smgr", "replay.snapshot": "fixed", "replay.snapshot_period": 1000}),
    "mnist-seq-smgr-dyn": dict(_FULL_MNIST, **{
        "replay.mode": "smgr", "replay.snapshot": "dynamic"}),
    "mnist-seq-nomgr": dict(_FULL_MNIST, **{"replay.mode": "off"}),
    "mnist-iid": dict(_FULL_MNIST, **{
        "stream.mode": "iid", "arch.encoder": (500, 500), "arch.decoder": (500,),
        "arch.n_z": 50, "arch.k_max": 100, "opt.lr": 5e-4, "replay.mode": "off"}),
    "mnist-drift-fixed": dict(_FULL_MNIST, **{
        "stream.mode": "continuous_drift", "replay.mode": "mgr",
        "replay.snapshot": "fixed", "replay.snapshot_period": 10000}),
    "mnist-drift-dyn": dict(_FULL_MNIST, **{
        "stream.mode": "continuous_drift", "replay.mode": "mgr",
        "replay.snapshot": "dynamic"}),
    "splitmnist-supervised": {
        "mode": "supervised",
        "data.source": "idx",
        "stream.mode": "split_task",
        "stream.total_steps": 10000,
        "stream.batch_size": 128,
        "stream.task_pairs": ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)),
        "arch.encoder": (400, 400),
        "arch.decoder": (400, 400),
        "arch.n_z": 100,
        "arch.k_max": 10,
        "opt.lr": 1e-3,
        "replay.mode": "mgr",
        "replay.snapshot": "fixed",
        "replay.snapshot_period": 2000,
        "eval.cadence": 1000,
    },
    # Random-init k-NN dimensionality study; run with the knn-sweep command.
    "knn-dim-sweep": dict(_FULL_MNIST, **{
        "replay.mode": "off", "expansion.enabled": False}),
    # Desk-scale presets used by the acceptance suite.
    "toy-blobs-mgr-dyn": dict(_TOY_BLOBS, **{
        "replay.mode": "mgr", "replay.snapshot": "dynamic"}),
    "toy-blobs-noreplay": dict(_TOY_BLOBS, **{"replay.mode": "off"}),
    "mnist3-seq-mgr-fixedT": dict(_MNIST3, **{
        "replay.mode": "mgr", "replay.snapshot": "fixed", "replay.snapshot_period": 1500}),
    "mnist3-seq-nomgr": dict(_MNIST3, **{"replay.mode": "off"}),
}


def preset_names() -> list[str]:
    return list(PRESETS)


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    cfg = ExperimentConfig()
    for key, value in PRESETS[name].items():
        _set(cfg, key, value)
    cfg.out_dir = f"runs/{name}"
    return validate_config(cfg)
