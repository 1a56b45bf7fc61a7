import os
import weakref

import numpy as np
import pytest

from mixvae import evaluation
from mixvae.adam import AdamState
from mixvae.checkpoint import load_checkpoint, save_checkpoint
from mixvae.config import apply_overrides, load_preset
from mixvae.data import Dataset, next_batch, save_matrix_dataset
from mixvae.errors import ConfigError
from mixvae.model import StepBuffers, elbo
from mixvae.replay import UsageCounts, take_snapshot
from mixvae.rng import RngState, STREAM_EVAL, STREAM_SHUFFLE, substream
from mixvae.train import (
    METRICS_HEADER,
    build_datasets,
    build_stream_spec,
    run_eval,
    run_gradcheck,
    run_knn_sweep,
    run_train,
)


def toy_cfg(tmp_path, name="toy-blobs-mgr-dyn", steps=600, **overrides):
    cfg = load_preset(name)
    items = [f"stream.total_steps={steps}", f"out_dir={tmp_path}/run",
             "eval.cadence=200", "data.blob_train_per_class=400",
             "data.blob_test_per_class=100"]
    items += [f"{k}={v}" for k, v in overrides.items()]
    return apply_overrides(cfg, items)


class TestRunTrain:
    def test_metrics_schema_and_files(self, tmp_path):
        cfg = toy_cfg(tmp_path)
        result = run_train(cfg)
        lines = open(result.metrics_path).read().strip().split("\n")
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + 600 // 200
        assert os.path.exists(result.checkpoint_path)
        assert os.path.exists(os.path.join(cfg.out_dir, "config.txt"))

    def test_one_step_buffer_object_for_the_run_freed_at_its_end(self, tmp_path, monkeypatch):
        used, snapshots, blocks, live_at_eval = [], [], [], []
        fit = StepBuffers.fit

        def recording_fit(self, *args):
            used.append(id(self))  # not the object, which would keep its block alive
            fit(self, *args)
            if not blocks or blocks[-1]() is not self.grads.vector.base:
                blocks.append(weakref.ref(self.grads.vector.base))  # a new block
            return self

        def recording_take_snapshot(*args):
            snapshots.append(take_snapshot(*args))
            return snapshots[-1]

        def recording_evaluate(params, *args, **kwargs):
            live_at_eval.append(sum(block() is not None for block in blocks))
            return evaluation.evaluate(params, *args, **kwargs)
        monkeypatch.setattr(StepBuffers, "fit", recording_fit)
        monkeypatch.setattr("mixvae.train.take_snapshot", recording_take_snapshot)
        monkeypatch.setattr("mixvae.train.evaluate", recording_evaluate)
        # 600 steps: real and replay batches, an expansion with its finetune, eval steps
        result = run_train(toy_cfg(tmp_path))
        assert result.expansion_log and len(snapshots) == len(result.snapshot_steps) > 0
        assert len(used) > 600 and set(used) == {used[0]}
        # the run's own buffers are released; the snapshots only generate, so
        # their generative copies have none
        assert id(result.params.step_buffers) != used[0]
        assert result.params.step_buffers.rows == 0
        # its block is freed before the last evaluation, not after it: no
        # gradient view keeps it alive
        assert live_at_eval[-1] == 0 and all(live == 1 for live in live_at_eval[:-1])
        assert not any(hasattr(snap.params, "step_buffers") for snap in snapshots)

    def test_seed_determinism_byte_identical(self, tmp_path):
        cfg_a = toy_cfg(tmp_path / "a")
        cfg_b = toy_cfg(tmp_path / "b")
        res_a = run_train(cfg_a)
        res_b = run_train(cfg_b)
        assert open(res_a.metrics_path, "rb").read() == open(res_b.metrics_path, "rb").read()
        assert (open(res_a.checkpoint_path, "rb").read()
                == open(res_b.checkpoint_path, "rb").read())

    def test_different_seed_changes_metrics(self, tmp_path):
        res_a = run_train(toy_cfg(tmp_path / "a"))
        res_b = run_train(toy_cfg(tmp_path / "b", seed=1))
        assert (open(res_a.metrics_path).read() != open(res_b.metrics_path).read())

    def test_iid_training_improves_heldout_elbo(self, tmp_path):
        cfg = toy_cfg(tmp_path, steps=2000, **{"replay.mode": "off",
                                               "expansion.enabled": "false",
                                               "stream.mode": "iid",
                                               "arch.k_init": 3})
        train, _valid, test = build_datasets(cfg)
        result = run_train(cfg)
        from mixvae.model import Architecture, init_params
        arch = result.params.arch
        fresh = init_params(arch, substream(cfg.seed, 0), cfg.arch.k_init)
        probe = test.images[:128]
        eps_rng = RngState(99, (200,))
        eps = eps_rng.normal((128, 3, arch.n_z))
        before = float(np.mean(elbo(probe, fresh, None, eps=eps).total))
        after = float(np.mean(elbo(probe, result.params, None, eps=eps).total))
        assert after > before + 1.0

    def test_fixed_snapshot_cadence(self, tmp_path):
        cfg = toy_cfg(tmp_path, steps=600,
                      **{"replay.snapshot": "fixed", "replay.snapshot_period": 100,
                         "expansion.enabled": "false"})
        result = run_train(cfg)
        assert result.snapshot_steps == [99, 199, 299, 399, 499, 599]
        for s in result.snapshot_steps:
            path = os.path.join(cfg.out_dir, f"snapshot-{s:07d}.ckpt")
            assert os.path.exists(path)
            assert load_checkpoint(path).is_snapshot

    def test_snapshots_carry_the_run_optimizer_settings(self, tmp_path):
        cfg = toy_cfg(tmp_path, steps=200,
                      **{"replay.snapshot": "fixed", "replay.snapshot_period": 100,
                         "expansion.enabled": "false", "opt.lr": 5e-4, "opt.beta2": 0.99,
                         "opt.eps": 1e-7})
        result = run_train(cfg)
        assert result.snapshot_steps == [99, 199]
        for s in result.snapshot_steps:
            adam = load_checkpoint(os.path.join(cfg.out_dir, f"snapshot-{s:07d}.ckpt")).adam
            assert (adam.lr, adam.beta1, adam.beta2, adam.eps, adam.t) == (5e-4, 0.9, 0.99, 1e-7, 0)
            assert not adam.m.vector.any() and not adam.v.vector.any()

    @pytest.mark.parametrize("snapshot_rule", [
        {"replay.snapshot": "fixed", "replay.snapshot_period": 100},
        {"replay.snapshot": "dynamic"}],  # a snapshot before each expansion
        ids=["fixed", "dynamic"])
    def test_snapshot_files_hold_the_live_state_of_their_step(self, tmp_path, monkeypatch,
                                                              snapshot_rule):
        taken = []

        def recording_take_snapshot(params, usage, step):
            counts = UsageCounts(params.k)
            counts.accumulated[:] = usage.accumulated
            counts.total_batches = usage.total_batches
            taken.append((params.clone(), counts, step))
            return take_snapshot(params, usage, step)
        monkeypatch.setattr("mixvae.train.take_snapshot", recording_take_snapshot)
        result = run_train(toy_cfg(tmp_path, **snapshot_rule))
        assert result.expansion_log and [step for *_, step in taken] == result.snapshot_steps
        adam = AdamState(result.adam.lr, result.adam.beta1, result.adam.beta2, result.adam.eps)
        for params, counts, step in taken:
            path = tmp_path / f"recorded-{step}.ckpt"
            save_checkpoint(path, params, adam, counts, step, snapshot=True)
            assert path.read_bytes() == (tmp_path / "run" / f"snapshot-{step:07d}.ckpt").read_bytes()

    def test_dynamic_snapshot_ignores_the_period(self, tmp_path):
        cfg = toy_cfg(tmp_path, steps=200,
                      **{"replay.snapshot": "dynamic", "replay.snapshot_period": 50,
                         "expansion.enabled": "false"})
        result = run_train(cfg)
        assert result.snapshot_steps == []
        assert not any(n.startswith("snapshot-") for n in os.listdir(cfg.out_dir))

    def test_dynamic_snapshot_precedes_expansion_with_pre_expansion_k(self, tmp_path):
        cfg = toy_cfg(tmp_path, steps=1200, **{"expansion.c_new": -12.0})
        result = run_train(cfg)
        if not result.expansion_log:
            pytest.skip("no expansion triggered in this short run")
        first_step, _parent, new_k = result.expansion_log[0]
        assert result.snapshot_steps[0] == first_step
        snap = load_checkpoint(os.path.join(cfg.out_dir, f"snapshot-{first_step:07d}.ckpt"))
        assert snap.params.k == new_k - 1

    @pytest.mark.parametrize("mode", ["mgr", "off"])
    def test_expansion_gets_counter_examples_only_with_replay(self, tmp_path, monkeypatch, mode):
        # with replay on, expand finetunes against samples from the
        # pre-expansion model under the usage prior; with it off, it gets none
        import mixvae.train as train_mod
        seen = []
        real = train_mod.expand

        def recording(params, *args, replay_prior=None, **kwargs):
            seen.append((params.k, replay_prior))
            return real(params, *args, replay_prior=replay_prior, **kwargs)
        monkeypatch.setattr(train_mod, "expand", recording)
        run_train(toy_cfg(tmp_path, **{"replay.mode": mode}))
        assert seen, "no expansion in the run"
        for k, prior in seen:
            if mode == "off":
                assert prior is None
            else:
                assert prior.shape == (k,) and abs(prior.sum() - 1.0) < 1e-9

    def test_replay_off_matches_real_batches_of_mgr_run(self, tmp_path):
        # sub-stream isolation: the real-data batch at step s is a pure
        # function of (spec, dataset, seed, s) regardless of replay mode
        from mixvae.data import next_batch
        cfg_off = toy_cfg(tmp_path / "off", **{"replay.mode": "off"})
        cfg_mgr = toy_cfg(tmp_path / "mgr")
        train_off, _, _ = build_datasets(cfg_off)
        train_mgr, _, _ = build_datasets(cfg_mgr)
        spec_off = build_stream_spec(cfg_off, train_off)
        spec_mgr = build_stream_spec(cfg_mgr, train_mgr)
        for step in (0, 100, 599):
            b_off = next_batch(spec_off, train_off, step, substream(0, 3, step))
            b_mgr = next_batch(spec_mgr, train_mgr, step, substream(0, 3, step))
            assert np.array_equal(b_off.x, b_mgr.x)

    def test_nonfinite_loss_aborts_with_step(self, tmp_path):
        from mixvae.errors import NumericError
        cfg = toy_cfg(tmp_path, steps=52, **{"opt.lr": 1e308})
        with pytest.raises(NumericError, match="step"):
            run_train(cfg)

    def test_constrained_eval_steps_log_the_marginal_objective(self, tmp_path, monkeypatch):
        # SMGR replay batches train with the constrained loss, whose breakdown
        # carries no marginal total; an eval step on one logs elbo() of the
        # same batch and noise, and a marginal eval step never calls it
        import mixvae.train as train_mod
        constrained = []  # per training step: whether backward got labels
        logged = {}       # step -> breakdown elbo() returned
        real_backward, real_elbo = train_mod.backward, train_mod.elbo

        def recording_backward(x, params, rng, y_obs=None, eps=None):
            constrained.append(y_obs is not None)
            return real_backward(x, params, rng, y_obs=y_obs, eps=eps)

        def recording_elbo(*args, **kwargs):
            bd = real_elbo(*args, **kwargs)
            logged[len(constrained) - 1] = bd
            return bd
        monkeypatch.setattr(train_mod, "backward", recording_backward)
        monkeypatch.setattr(train_mod, "elbo", recording_elbo)
        cfg = toy_cfg(tmp_path, steps=300, **{"replay.mode": "smgr", "replay.snapshot": "fixed",
                                              "replay.snapshot_period": 100,
                                              "expansion.enabled": "false", "eval.cadence": 75})
        result = run_train(cfg)
        eval_steps = (74, 149, 224, 299)
        assert len(constrained) == 300 and constrained[299]  # the final eval step is replay
        assert {s for s in eval_steps if not constrained[s]} == {74, 224}
        assert set(logged) == {s for s in eval_steps if constrained[s]}
        rows = [line.split(",") for line in open(result.metrics_path).read().split("\n")[1:-1]]
        assert [int(r[0]) for r in rows] == list(eval_steps)
        for r in rows:
            bd = logged.get(int(r[0]))
            if bd is not None:
                assert float(r[2]) == float(np.mean(bd.total))
                assert float(r[3]) == float(np.mean(bd.cat_kl))


class TestSupervisedTraining:
    def cfg(self, tmp_path, steps=500):
        cfg = load_preset("splitmnist-supervised")
        return apply_overrides(cfg, [
            "data.source=blobs", "data.n_valid=0", "data.blob_classes=4",
            "data.blob_dim=16", "data.blob_train_per_class=400",
            "data.blob_test_per_class=100",
            "stream.task_pairs=0:1,2:3", f"stream.total_steps={steps}",
            "stream.batch_size=32", "arch.encoder=16,12", "arch.decoder=12,16",
            "arch.n_z=4", "arch.k_max=4", "arch.k_init=1",
            f"replay.snapshot_period={steps // 2}", "eval.cadence=250",
            f"out_dir={tmp_path}/sup"])

    def test_components_align_to_labels(self, tmp_path):
        result = run_train(self.cfg(tmp_path))
        assert result.params.k == 4
        new_ks = [e[2] for e in result.expansion_log]
        assert new_ks == [2, 3, 4]

    def test_supervised_accuracy_beats_chance(self, tmp_path):
        from mixvae.evaluation import incremental_class_accuracy, incremental_task_accuracy
        cfg = self.cfg(tmp_path, steps=1000)
        result = run_train(cfg)
        _train, _valid, test = build_datasets(cfg)
        cls = incremental_class_accuracy(result.params, test)
        task = incremental_task_accuracy(result.params, test, ((0, 1), (2, 3)))
        assert task >= cls
        assert cls > 0.5
        assert task > 0.9


class TestLabelTriggeredExpansion:
    def cfg(self, tmp_path, steps=800, cadence=400, *extra):
        return apply_overrides(load_preset("toy-blobs-mgr-dyn"), [
            "mode=supervised", "stream.mode=split_task", "replay.mode=smgr",
            f"stream.total_steps={steps}", f"eval.cadence={cadence}",
            f"out_dir={tmp_path}/run", *extra])

    def test_component_k_created_where_label_k_first_appears(self, tmp_path):
        cfg = self.cfg(tmp_path)
        train, _valid, _test = build_datasets(cfg)
        spec = build_stream_spec(cfg, train)
        first_step = {}
        for step in range(spec.total_steps):
            batch = next_batch(spec, train, step, substream(cfg.seed, STREAM_SHUFFLE, step))
            for label in np.unique(batch.labels):
                first_step.setdefault(int(label), step)
        result = run_train(cfg)
        assert cfg.arch.k_init == 1 and result.params.k == 4
        assert [(s, k) for s, _, k in result.expansion_log] == [
            (first_step[label], label + 1) for label in (1, 2, 3)]
        for name, buf in result.params.buffers():
            assert result.adam.m[name].shape == buf.shape, name
            assert result.adam.v[name].shape == buf.shape, name
        assert result.usage.accumulated.shape == (4,)

    @pytest.mark.parametrize("extra, match", [
        (("stream.task_pairs=0:2,1:3",), "skipped value 1"),
        (("arch.k_max=2",), "exceeds capacity"),
    ])
    def test_skipped_label_or_capacity_raises(self, tmp_path, extra, match):
        with pytest.raises(ConfigError, match=match):
            run_train(self.cfg(tmp_path, 4, 2, *extra))


class TestClassSubset:
    def test_a_class_order_subset_is_scored_on_its_own_classes(self, tmp_path, monkeypatch):
        # 5 classes in the files, 3 in the stream: evaluation sees only those 3
        rng = np.random.default_rng(3)
        for split, n in (("train", 60), ("test", 20)):
            labels = np.repeat(np.arange(5), n)
            save_matrix_dataset(tmp_path / f"{split}.mvds",
                                Dataset(rng.uniform(0, 1, (labels.size, 8)), labels, n_classes=5))
        knn_labels = []
        real_knn = evaluation.knn_errors

        def recording_knn(train_z, train_labels, test_z, test_labels, ks):
            knn_labels.append((set(train_labels.tolist()), set(test_labels.tolist())))
            return real_knn(train_z, train_labels, test_z, test_labels, ks)
        monkeypatch.setattr(evaluation, "knn_errors", recording_knn)
        cfg = toy_cfg(tmp_path, steps=300, **{
            "data.source": "matrix", "data.dir": tmp_path, "stream.class_order": "4,1,2",
            "eval.cadence": 100, "eval.knn_train_subsample": 100})
        result = run_train(cfg)
        stream = {1, 2, 4}
        for report in result.reports:
            assert report.classes == (1, 2, 4)
            assert report.confusion.shape == (3, report.n_active_components)
            assert report.confusion.sum(axis=1).tolist() == [20, 20, 20]
            assert report.per_class_accuracy.shape == (3,)
        assert len(knn_labels) == 3 and all(pair == (stream, stream) for pair in knn_labels)
        rows = open(os.path.join(cfg.out_dir, "per_class.csv")).read().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == [1, 2, 4] * 3
        assert run_eval(cfg, result.checkpoint_path).classes == (1, 2, 4)
        assert knn_labels[-1] == (stream, stream)


def write_digit_like(path, seed, n_per_class, n_classes=4):
    """784-d matrix data: each class lights its own seeded 150 of the 784
    pixels, with Gaussian noise, quantised to 1/255 like 8-bit scans."""
    protos = np.full((n_classes, 784), 0.02)
    pick = np.random.default_rng(99)
    for c in range(n_classes):
        protos[c, pick.choice(784, 150, replace=False)] = 0.9
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    x = protos[labels] + 0.05 * rng.standard_normal((labels.size, 784))
    save_matrix_dataset(path, Dataset(np.round(np.clip(x, 0, 1) * 255) / 255, labels,
                                      n_classes=n_classes, image_hw=(28, 28)))


@pytest.fixture(scope="module")
def digit_dir(tmp_path_factory):
    """train.mvds and test.mvds of 784-d digit-like data, written once per module."""
    path = tmp_path_factory.mktemp("digits")
    write_digit_like(path / "train.mvds", 0, 200)
    write_digit_like(path / "test.mvds", 1, 50)
    return path


def mnist3_cfg(preset, data_dir, out_dir, *overrides):
    """A `mnist3-*` preset cut to 300 steps on matrix data, with 300/100-point k-NN subsamples."""
    return apply_overrides(load_preset(preset), [
        "data.source=matrix", f"data.dir={data_dir}", "data.n_valid=0",
        "stream.total_steps=300", "eval.cadence=100", "expansion.finetune_iters=25",
        "eval.knn_train_subsample=300", "eval.knn_test_subsample=100", f"out_dir={out_dir}",
        *overrides])


@pytest.fixture
def knn_sizes(monkeypatch):
    """(train size, test size, test classes) of every k-NN call."""
    sizes = []
    real_knn = evaluation.knn_errors

    def recording_knn(train_z, train_labels, test_z, test_labels, ks):
        sizes.append((len(train_labels), len(test_labels), set(test_labels.tolist())))
        return real_knn(train_z, train_labels, test_z, test_labels, ks)
    monkeypatch.setattr(evaluation, "knn_errors", recording_knn)
    return sizes


def check_subset_run(cfg, result):
    """Three finite metrics rows and per-class rows for exactly classes 0-2."""
    assert result.params.arch.input_dim == 784
    rows = [r.split(",") for r in open(result.metrics_path).read().splitlines()[1:]]
    assert len(rows) == 3
    assert all(np.isfinite(float(v)) for row in rows for v in row[1:9])
    per_class = open(os.path.join(cfg.out_dir, "per_class.csv")).read().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in per_class] == [0, 1, 2] * 3
    assert all(np.isfinite(float(r.split(",")[2])) for r in per_class)


class TestMnist3Preset:
    # structure only: no accuracy threshold is calibrated on synthetic data
    def test_subset_preset_runs_on_784d_matrix_data(self, tmp_path, digit_dir, knn_sizes):
        outputs = []
        for tag in ("a", "b"):
            cfg = mnist3_cfg("mnist3-seq-mgr-fixedT", digit_dir, tmp_path / tag,
                             "replay.snapshot_period=100")
            result = run_train(cfg)
            check_subset_run(cfg, result)
            assert result.snapshot_steps == [99, 199, 299]
            assert len(result.expansion_log) >= 1
            outputs.append({n: open(os.path.join(cfg.out_dir, n), "rb").read()
                            for n in sorted(os.listdir(cfg.out_dir)) if n != "config.txt"})
        # the k-NN test side is the seeded 100-point subsample of classes 0-2
        assert knn_sizes == [(300, 100, {0, 1, 2})] * 6
        assert outputs[0] == outputs[1]
        assert "snapshot-0000099.ckpt" in outputs[0]

    def test_replay_off_preset_runs_on_784d_matrix_data(self, tmp_path, digit_dir, knn_sizes):
        cfg = mnist3_cfg("mnist3-seq-nomgr", digit_dir, tmp_path / "run")
        result = run_train(cfg)
        check_subset_run(cfg, result)
        assert result.snapshot_steps == []
        assert not [n for n in os.listdir(cfg.out_dir) if n.startswith("snapshot")]
        assert knn_sizes == [(300, 100, {0, 1, 2})] * 3


class TestRunEval:
    def test_eval_matches_before_and_after_save(self, tmp_path):
        cfg = toy_cfg(tmp_path)
        result = run_train(cfg)
        report = run_eval(cfg, result.checkpoint_path, split="test")
        assert report.cluster_accuracy == pytest.approx(
            result.final_report.cluster_accuracy)

    def test_eval_csv_row(self, tmp_path):
        cfg = toy_cfg(tmp_path)
        result = run_train(cfg)
        out = tmp_path / "eval.csv"
        run_eval(cfg, result.checkpoint_path, split="test", out_csv=out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 2


class TestGradcheckRunner:
    def test_default_passes(self):
        worst, passed = run_gradcheck(seed=0, n_configs=2, verbose=False)
        assert passed
        assert set(worst) == {"marginal", "constrained"}
        assert all(e < 1e-4 for path in worst.values() for e in path.values())

    def test_config_next_to_a_relu_kink_is_redrawn(self):
        # seed 305's first config puts a ReLU input 6.8e-6 from zero, inside
        # the +-1e-5 step; kept, it failed with max error 3.5e-4
        _, passed = run_gradcheck(seed=305, n_configs=2, verbose=False)
        assert passed

    def test_corrupted_buffer_fails_with_name(self, corrupt_lat_w):
        worst, passed = run_gradcheck(seed=0, n_configs=1, verbose=False)
        assert not passed
        assert worst["marginal"]["lat_w"] > 1e-4
        ok = [n for n in worst["marginal"] if n != "lat_w"]
        assert all(worst["marginal"][n] < 1e-4 for n in ok)


class TestKnnSweep:
    def test_error_decreases_with_dimension_on_blobs(self, tmp_path):
        cfg = toy_cfg(tmp_path, **{"eval.knn_train_subsample": 600})
        out = tmp_path / "sweep.csv"
        results = run_knn_sweep(cfg, dims=(2, 8), n_seeds=2, out_csv=out)
        assert set(results) == {2, 8}
        assert len(results[2]) == 2
        assert out.exists()
        assert out.read_text().startswith("n_z,seed,knn_error\n")

    @pytest.mark.parametrize("k", [0, 601])
    def test_k_outside_the_train_subsample_is_a_config_error(self, tmp_path, k):
        cfg = toy_cfg(tmp_path, **{"eval.knn_train_subsample": 600})
        with pytest.raises(ConfigError, match=f"k={k} invalid"):
            run_knn_sweep(cfg, dims=(2,), n_seeds=1, k=k)
