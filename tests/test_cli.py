import os

import numpy as np
import pytest

from mixvae.cli import main
from mixvae.evaluation import load_grid_matrix


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
