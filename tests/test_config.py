import pytest

from mixvae.config import (
    ExperimentConfig,
    apply_overrides,
    load_preset,
    parse_config,
    preset_names,
    serialize_config,
)
from mixvae.errors import ConfigError

SPEC_PRESETS = [
    "mnist-seq-mgr-fixedT", "mnist-seq-mgr-fixed01T", "mnist-seq-mgr-dyn",
    "mnist-seq-smgr-fixedT", "mnist-seq-smgr-fixed01T", "mnist-seq-smgr-dyn",
    "mnist-seq-nomgr", "mnist-iid", "mnist-drift-fixed", "mnist-drift-dyn",
    "splitmnist-supervised", "knn-dim-sweep",
]


def test_defaults_serialize_and_round_trip():
    text = serialize_config(ExperimentConfig())
    assert serialize_config(parse_config(text)) == text


def test_parse_round_trip_idempotent():
    text = "seed = 7\nstream.mode = iid\narch.encoder = 64,32\n"
    normalized = serialize_config(parse_config(text))
    assert serialize_config(parse_config(normalized)) == normalized
    cfg = parse_config(normalized)
    assert cfg.seed == 7
    assert cfg.stream.mode == "iid"
    assert cfg.arch.encoder == (64, 32)


def test_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\nseed = 3\n")
    assert cfg.seed == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("stream.warp = 9\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("seed = banana\n")


def test_choice_validation():
    with pytest.raises(ConfigError):
        parse_config("replay.mode = maybe\n")


def test_range_validation():
    with pytest.raises(ConfigError):
        parse_config("stream.total_steps = 0\n")
    with pytest.raises(ConfigError):
        parse_config("arch.k_init = 5\narch.k_max = 3\n")


def test_bad_snapshot_rule_rejected():
    with pytest.raises(ConfigError):
        parse_config("replay.snapshot = sometimes\n")
    with pytest.raises(ConfigError):
        parse_config("replay.snapshot = fixed\nreplay.snapshot_period = 0\n")


def test_task_pairs_syntax():
    cfg = parse_config("stream.task_pairs = 0:1,2:3\n")
    assert cfg.stream.task_pairs == ((0, 1), (2, 3))
    assert "stream.task_pairs = 0:1,2:3" in serialize_config(cfg)


def test_supervised_requires_split_task():
    with pytest.raises(ConfigError):
        parse_config("mode = supervised\nstream.mode = iid\n")


def test_overrides():
    cfg = apply_overrides(ExperimentConfig(), ["seed=9", "replay.mode=smgr"])
    assert cfg.seed == 9
    assert cfg.replay.mode == "smgr"
    with pytest.raises(ConfigError):
        apply_overrides(ExperimentConfig(), ["nope=1"])


@pytest.mark.parametrize("name", SPEC_PRESETS)
def test_spec_named_presets_exist_and_validate(name):
    cfg = load_preset(name)
    assert serialize_config(cfg)


def test_preset_protocol_shapes():
    fixed = load_preset("mnist-seq-mgr-fixedT")
    assert fixed.stream.total_steps == 100000
    assert fixed.stream.mode == "sequential"
    assert fixed.replay.snapshot_period == 10000  # T = one class block
    assert fixed.arch.encoder == (1200, 600, 300, 150)
    assert fixed.arch.k_max == 25
    assert fixed.expansion.c_new == -200.0
    tenth = load_preset("mnist-seq-mgr-fixed01T")
    assert tenth.replay.snapshot_period == 1000
    dyn = load_preset("mnist-seq-mgr-dyn")
    assert dyn.replay.snapshot == "dynamic"
    split = load_preset("splitmnist-supervised")
    assert split.mode == "supervised"
    assert split.stream.task_pairs == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    assert split.arch.k_max == 10
    iid = load_preset("mnist-iid")
    assert iid.stream.mode == "iid"
    assert iid.arch.n_z == 50


def test_full_scale_presets_compute_in_float32():
    for name in preset_names():
        want = "float32" if name.startswith("mnist-") or name == "knn-dim-sweep" else "float64"
        assert load_preset(name).arch.compute_dtype == want, name
    assert ExperimentConfig().arch.compute_dtype == "float64"
    with pytest.raises(ConfigError, match="compute_dtype"):
        parse_config("arch.compute_dtype = float16\n")


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("mnist-quantum")


def test_all_presets_round_trip():
    for name in preset_names():
        cfg = load_preset(name)
        text = serialize_config(cfg)
        assert serialize_config(parse_config(text)) == text, name


@pytest.mark.parametrize("item, key", [
    ("expansion.c_new=nan", "expansion.c_new"),  # no sample is ever below NaN
    ("opt.beta1=1.5", "opt.beta1"),
    ("opt.beta2=1.0", "opt.beta2"),
    ("opt.beta1=-0.1", "opt.beta1"),
    ("opt.eps=-1e-8", "opt.eps"),
    ("opt.eps=0", "opt.eps"),
    ("opt.eps=nan", "opt.eps"),
    ("opt.lr=inf", "opt.lr"),
    ("data.blob_factor_scale=nan", "data.blob_factor_scale"),
    ("data.blob_noise=inf", "data.blob_noise"),
    ("data.blob_noise=-inf", "data.blob_noise"),
])
def test_non_finite_and_out_of_range_floats_rejected(item, key):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        apply_overrides(ExperimentConfig(), [item])
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        parse_config(item.replace("=", " = ") + "\n")


def test_boundary_optimizer_values_accepted():
    cfg = apply_overrides(ExperimentConfig(),
                          ["opt.beta1=0", "opt.beta2=0.999999", "opt.eps=1e-300"])
    assert (cfg.opt.beta1, cfg.opt.beta2, cfg.opt.eps) == (0.0, 0.999999, 1e-300)
