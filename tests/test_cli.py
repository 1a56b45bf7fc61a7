import numpy as np
import pytest

import mixvae.train as train_mod
from conftest import load_grid_matrix
from mixvae.checkpoint import load_checkpoint, save_checkpoint
from mixvae.cli import main
from mixvae.config import apply_overrides, load_preset
from mixvae.data import MATRIX_MAGIC
from mixvae.evaluation import incremental_class_accuracy, incremental_task_accuracy
from mixvae.model import Architecture, generate, init_params
from mixvae.replay import UsageCounts
from mixvae.rng import STREAM_EVAL, RngState, substream


def toy_args(tmp_path, extra=()):
    return ["--preset", "toy-blobs-mgr-dyn", "--out", str(tmp_path / "run"),
            "--set", "stream.total_steps=400", "--set", "eval.cadence=200",
            "--set", "data.blob_train_per_class=300",
            "--set", "data.blob_test_per_class=80", *extra]


def test_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out.split()
    assert "mnist-seq-mgr-fixedT" in out
    assert "splitmnist-supervised" in out
    assert "knn-dim-sweep" in out


def test_train_eval_export_round_trip(tmp_path, capsys):
    assert main(["train", *toy_args(tmp_path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint.ckpt"
    assert ckpt.exists()
    assert (tmp_path / "run" / "metrics.csv").exists()

    assert main(["eval", *toy_args(tmp_path), "--checkpoint", str(ckpt),
                 "--csv", str(tmp_path / "eval.csv")]) == 0
    assert (tmp_path / "eval.csv").exists()

    latents = tmp_path / "latents.csv"
    assert main(["export-latents", *toy_args(tmp_path), "--checkpoint", str(ckpt),
                 "--out-file", str(latents)]) == 0
    lines = latents.read_text().strip().split("\n")
    assert lines[0].startswith("index,label,component,z_0")
    assert len(lines) == 1 + 4 * 80

    pgm = tmp_path / "samples.pgm"
    mat = tmp_path / "samples.mvmx"
    assert main(["export-samples", "--checkpoint", str(ckpt), "--n", "9",
                 "--out-file", str(pgm), "--matrix-file", str(mat)]) == 0
    assert pgm.read_bytes().startswith(b"P5\n")
    samples = load_grid_matrix(mat)
    assert samples.shape == (9, 16)
    assert np.all((samples > 0) & (samples < 1))


def test_gradcheck_cli(monkeypatch, capsys, corrupt_lat_w):
    assert main(["gradcheck", "--configs", "1"]) == 1
    failed = [line.split()[2] for line in capsys.readouterr().out.splitlines()
              if line.endswith("FAIL") and "overall" not in line]
    assert failed == ["lat_w", "lat_w"]  # marginal and constrained paths
    monkeypatch.undo()
    assert main(["gradcheck", "--configs", "1"]) == 0


@pytest.mark.parametrize("configs", ["0", "-2"])
def test_gradcheck_cli_rejects_checking_no_config(capsys, configs):
    assert main(["gradcheck", "--configs", configs]) == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err == f"error: gradcheck needs at least one config, got {configs}\n"


def test_seed_and_set_overrides(tmp_path):
    args = toy_args(tmp_path, extra=["--seed", "5"])
    assert main(["train", *args]) == 0
    cfg_text = (tmp_path / "run" / "config.txt").read_text()
    assert "seed = 5" in cfg_text
    assert "stream.total_steps = 400" in cfg_text


def test_config_file_input(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(
        "data.source = blobs\ndata.n_valid = 0\n"
        "stream.mode = sequential\nstream.total_steps = 200\n"
        "stream.batch_size = 32\n"
        "arch.encoder = 16,8\narch.decoder = 8,16\narch.n_z = 3\narch.k_max = 6\n"
        "eval.cadence = 100\n"
        f"out_dir = {tmp_path}/cfg_run\n"
        "data.blob_train_per_class = 200\ndata.blob_test_per_class = 50\n")
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "cfg_run" / "metrics.csv").exists()


def test_missing_config_errors(capsys):
    assert main(["train"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_preset_errors(capsys):
    assert main(["train", "--preset", "nope"]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_knn_sweep_cli(tmp_path):
    args = toy_args(tmp_path, extra=["--dims", "2,4", "--seeds", "1",
                                     "--csv", str(tmp_path / "sweep.csv")])
    assert main(["knn-sweep", *args]) == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert text.startswith("n_z,seed,knn_error\n")
    assert len(text.strip().split("\n")) == 3


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """A trained toy run: (its directory, its CLI config args)."""
    tmp = tmp_path_factory.mktemp("toy")
    assert main(["train", *toy_args(tmp)]) == 0
    return tmp / "run", toy_args(tmp)


@pytest.mark.parametrize("case, match", [
    ("eval-valid", "empty valid split"),
    ("latents-valid", "empty valid split"),
    ("latents-dim", "input dim 16 != data dim 8"),
    ("eval-dir", "Is a directory"),
    ("samples-dir", "Is a directory"),
    ("knn-dims", "--dims takes comma-separated integers, got '2,x'"),
    ("samples-n0-snapshots", "need at least one sample per checkpoint, got 0"),
    ("samples-n0-checkpoint", "need at least one sample per checkpoint, got 0"),
    ("knn-dims0", "--dims and --seeds need values >= 1, got (2, 0), 3"),
    ("knn-seeds0", "--dims and --seeds need values >= 1, got (2,), 0"),
])
def test_read_commands_fail_with_error_line(toy_run, tmp_path, capsys, case, match):
    run, args = toy_run
    ckpt = str(run / "checkpoint.ckpt")
    out = str(tmp_path / "out")
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    (snaps / "snapshot-0000000.ckpt").write_bytes((run / "checkpoint.ckpt").read_bytes())
    argv = {
        "eval-valid": ["eval", *args, "--checkpoint", ckpt, "--split", "valid"],
        "latents-valid": ["export-latents", *args, "--checkpoint", ckpt, "--split", "valid",
                          "--out-file", out],
        "latents-dim": ["export-latents", *args, "--set", "data.blob_dim=8",
                        "--checkpoint", ckpt, "--out-file", out],
        "eval-dir": ["eval", *args, "--checkpoint", str(run)],
        "samples-dir": ["export-samples", "--checkpoint", str(run), "--out-file", out],
        "knn-dims": ["knn-sweep", *args, "--dims", "2,x", "--csv", out],
        "samples-n0-snapshots": ["export-samples", "--snapshots-dir", str(snaps), "--n", "0",
                                 "--out-file", out],
        "samples-n0-checkpoint": ["export-samples", "--checkpoint", ckpt, "--n", "0",
                                  "--out-file", out],
        "knn-dims0": ["knn-sweep", *args, "--dims", "2,0", "--csv", out],
        "knn-seeds0": ["knn-sweep", *args, "--dims", "2", "--seeds", "0", "--csv", out],
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err
    assert not (tmp_path / "out").exists()


def test_export_samples_one_row_per_snapshot_in_step_order(tmp_path):
    args = toy_args(tmp_path, extra=["--set", "replay.snapshot=fixed",
                                     "--set", "replay.snapshot_period=100",
                                     "--set", "expansion.enabled=false"])
    assert main(["train", *args]) == 0
    pgm, mat = tmp_path / "rows.pgm", tmp_path / "rows.mvmx"
    assert main(["export-samples", "--snapshots-dir", str(tmp_path / "run"), "--n", "5",
                 "--seed", "3", "--out-file", str(pgm), "--matrix-file", str(mat)]) == 0
    samples = load_grid_matrix(mat)
    assert samples.shape == (4 * 5, 16)
    assert pgm.read_bytes().startswith(b"P5\n20 16\n255\n")  # 5 x 4 tiles of 4x4 pixels
    for i, step in enumerate((99, 199, 299, 399)):
        snap = load_checkpoint(tmp_path / "run" / f"snapshot-{step:07d}.ckpt")
        assert snap.step == step
        x, _ = generate(snap.params, snap.usage.prior(), 5,
                        substream(3, STREAM_EVAL, 10 ** 6 + i))
        assert np.array_equal(samples[5 * i:5 * (i + 1)], x)


def test_supervised_eval_scores_its_split_loading_once(tmp_path, capsys, monkeypatch):
    args = toy_args(tmp_path, extra=["--set", "mode=supervised",
                                     "--set", "stream.mode=split_task",
                                     "--set", "replay.mode=smgr"])
    assert main(["train", *args]) == 0
    ckpt = tmp_path / "run" / "checkpoint.ckpt"
    calls = {"load_checkpoint": 0, "build_datasets": 0}

    def counted(name):
        real = getattr(train_mod, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return real(*a, **kw)
        return wrapper
    for name in calls:
        monkeypatch.setattr(train_mod, name, counted(name))
    capsys.readouterr()
    assert main(["eval", *args, "--checkpoint", str(ckpt), "--split", "train"]) == 0
    assert calls == {"load_checkpoint": 1, "build_datasets": 1}
    monkeypatch.undo()

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("step=400 cluster_acc=")
    cfg = apply_overrides(load_preset("toy-blobs-mgr-dyn"),
                          [v for flag, v in zip(args, args[1:]) if flag == "--set"])
    train, _valid, test = train_mod.build_datasets(cfg)
    assert len(train) != len(test)
    params = load_checkpoint(ckpt).params
    task = incremental_task_accuracy(params, train, ((0, 1), (2, 3)))
    cls = incremental_class_accuracy(params, train)
    assert lines[1] == f"incremental_task={task:.4f} incremental_class={cls:.4f}"


def toy_checkpoint(path, k, usage=None):
    """A fresh net for the toy preset's 16-d blobs at K=k."""
    arch = Architecture(input_dim=16, encoder=(8,), n_z=2, decoder=(8,), k_max=4)
    save_checkpoint(path, init_params(arch, RngState(0, (120,)), k), usage=usage)
    return str(path)


@pytest.mark.parametrize("k, message", [(2, "K=2 smaller than the 4 classes"),
                                        (4, "do not cover classes [2, 3]")])
def test_supervised_eval_that_cannot_score_its_split_is_one_error_line(tmp_path, capsys,
                                                                         k, message):
    # a K=2 run trained on the pair 0:1, or a K=4 run evaluated with only
    # that pair, against the toy split's four classes
    args = toy_args(tmp_path, extra=["--set", "mode=supervised", "--set", "stream.mode=split_task",
                                     "--set", "stream.task_pairs=0:1"])
    csv = tmp_path / "eval.csv"
    ckpt = toy_checkpoint(tmp_path / "k.ckpt", k)
    assert main(["eval", *args, "--checkpoint", ckpt, "--csv", str(csv)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not csv.exists()


@pytest.mark.parametrize("counts", [[0.0, 0.0], [1.5, -0.5]])
def test_export_samples_from_malformed_usage_counts_is_one_error_line(tmp_path, capsys, counts):
    usage = UsageCounts(2)
    usage.accumulated[:], usage.total_batches = counts, 1
    ckpt = toy_checkpoint(tmp_path / "u.ckpt", 2, usage)
    assert main(["export-samples", "--checkpoint", ckpt, "--out-file",
                 str(tmp_path / "s.pgm")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage counts") and err.count("\n") == 1


def test_train_on_a_truncated_matrix_header_is_one_error_line(tmp_path, capsys):
    (tmp_path / "train.mvds").write_bytes(MATRIX_MAGIC + b"\x05\x00\x00")
    run = tmp_path / "run"
    assert main(["train", "--preset", "toy-blobs-mgr-dyn", "--out", str(run),
                 "--set", "data.source=matrix", "--set", f"data.dir={tmp_path}"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: header: ") and err.count("\n") == 1
    assert not run.exists()
