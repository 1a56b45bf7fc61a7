import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mixvae
from conftest import load_grid_matrix, tiny_params
from mixvae import evaluation
from mixvae.data import Dataset, make_blob_dataset
from mixvae.evaluation import (
    cluster_accuracy,
    encode_eval_latents,
    evaluate,
    export_latents_csv,
    incremental_class_accuracy,
    incremental_task_accuracy,
    knn_errors,
    majority_mapping,
    sample_grid,
    save_grid_matrix,
    write_pgm,
)
from mixvae.errors import NumericError
from mixvae.model import (
    SIGMA_FLOOR,
    component_posterior_params,
    encode_shared,
    infer_task_posterior,
)
from mixvae.rng import RngState


def sorted_knn_errors(train, train_labels, test, test_labels, ks):
    """Reference k-NN: a full stable sort of every distance row."""
    d2 = np.sum(test ** 2, axis=1)[:, None] - 2.0 * (test @ train.T) + np.sum(train ** 2, axis=1)
    votes = train_labels[np.argsort(d2, axis=1, kind="stable")[:, :max(ks)]]
    n_classes = int(max(train_labels.max(), test_labels.max())) + 1
    out = {}
    for k in ks:
        counts = np.sum(votes[:, :k, None] == np.arange(n_classes), axis=1)
        out[k] = 1.0 - float(np.mean(np.argmax(counts, axis=1) == test_labels))
    return out


@st.composite
def coarse_latents(draw):
    """Train and test latents on a 3-point grid per axis: exact distance ties everywhere."""
    dim = draw(st.integers(1, 3))
    n_train = draw(st.integers(1, 40))
    n_test = draw(st.integers(1, 30))
    cells = st.integers(0, 2)
    train = np.array(draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                   min_size=n_train, max_size=n_train)), dtype=np.float64)
    test = np.array(draw(st.lists(st.lists(cells, min_size=dim, max_size=dim),
                                  min_size=n_test, max_size=n_test)), dtype=np.float64)
    train_labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n_train,
                                          max_size=n_train)))
    test_labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n_test, max_size=n_test)))
    k_top = draw(st.integers(1, n_train))
    return train, train_labels, test, test_labels, k_top


class TestClusterAccuracy:
    def test_pure_components(self):
        assignments = np.array([0, 0, 1, 1, 2, 2])
        labels = np.array([5, 5, 1, 1, 0, 0])
        assert cluster_accuracy(assignments, labels) == 1.0

    def test_single_component_balanced_classes(self):
        labels = np.repeat(np.arange(10), 10)
        assignments = np.zeros(100, dtype=np.int64)
        assert cluster_accuracy(assignments, labels) == pytest.approx(0.1)

    def test_hand_instance(self):
        # brute-force majority mapping over this 5-point instance gives 0.8
        assignments = np.array([0, 0, 1, 1, 1])
        labels = np.array([2, 2, 2, 3, 3])
        assert cluster_accuracy(assignments, labels) == pytest.approx(0.8)

    def test_relabeling_invariance(self):
        rng = RngState(0, (90,))
        assignments = rng.integers(6, size=300)
        labels = rng.integers(4, size=300)
        base = cluster_accuracy(assignments, labels)
        perm = rng.permutation(6)
        assert cluster_accuracy(perm[assignments], labels) == pytest.approx(base)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cluster_accuracy(np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64))

    def test_majority_tie_goes_to_lowest_class(self):
        mapping = majority_mapping(np.array([0, 0]), np.array([3, 1]), 1, 4)
        assert mapping[0] == 1


class TestKnn:
    def test_self_match_zero_error(self):
        z = RngState(1, (91,)).normal((30, 3))
        y = RngState(2, (92,)).integers(4, size=30)
        assert knn_errors(z, y, z, y, (1,))[1] == 0.0

    def test_separated_clusters(self):
        rng = RngState(3, (93,))
        a = rng.normal((50, 2)) + 100.0
        b = rng.normal((50, 2)) - 100.0
        z = np.concatenate([a, b])
        y = np.array([0] * 50 + [1] * 50)
        assert knn_errors(z, y, z, y, (10,))[10] == 0.0

    def test_hand_instance(self):
        # neighbors of 1.4 among [0,1,2,10,11] at k=3 are {1,2,0} -> class a
        train = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        labels = np.array([0, 0, 0, 1, 1])
        err = knn_errors(train, labels, np.array([[1.4]]), np.array([0]), (3,))[3]
        assert err == 0.0
        err_b = knn_errors(train, labels, np.array([[1.4]]), np.array([1]), (3,))[3]
        assert err_b == 1.0

    def test_rotation_invariance(self):
        rng = RngState(4, (94,))
        train = rng.normal((80, 5))
        test = rng.normal((40, 5))
        ty = rng.integers(3, size=80)
        sy = rng.integers(3, size=40)
        base = knn_errors(train, ty, test, sy, (3, 5, 10))
        q, _ = np.linalg.qr(rng.normal((5, 5)))
        rotated = knn_errors(train @ q, ty, test @ q, sy, (3, 5, 10))
        for k in base:
            assert rotated[k] == pytest.approx(base[k], abs=1e-9)

    def test_distance_tie_resolved_by_index(self):
        # two train points equidistant from the query; lower index wins at k=1
        train = np.array([[1.0], [-1.0], [5.0]])
        labels = np.array([2, 1, 0])
        err = knn_errors(train, labels, np.array([[0.0]]), np.array([2]), (1,))[1]
        assert err == 0.0

    def test_vote_tie_to_smallest_class(self):
        train = np.array([[0.0], [1.0]])
        labels = np.array([1, 0])
        # k=2: one vote each; smallest class (0) wins
        err = knn_errors(train, labels, np.array([[0.4]]), np.array([0]), (2,))[2]
        assert err == 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coarse_latents())
    def test_partial_sort_matches_full_stable_sort(self, case):
        train, _, test, _, k_top = case
        d2 = np.sum(test ** 2, axis=1)[:, None] - 2.0 * (test @ train.T) + np.sum(train ** 2, axis=1)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :k_top]
        np.testing.assert_array_equal(evaluation._k_nearest(d2, k_top), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(coarse_latents(), st.integers(1, 64))
    def test_knn_errors_match_full_sort_across_blocks(self, case, block):
        train, train_labels, test, test_labels, k_top = case
        ks = tuple(sorted({1, k_top, max(1, k_top // 2)}))
        expected = sorted_knn_errors(train, train_labels, test, test_labels, ks)
        saved = evaluation._KNN_BLOCK, evaluation._KNN_MIN_ROWS
        # blocks of max(1, block // n_train) test rows: the test sets hold at
        # most 30 rows, so the production floor of 32 rows would make one block
        evaluation._KNN_BLOCK, evaluation._KNN_MIN_ROWS = block, 1
        try:
            got = knn_errors(train, train_labels, test, test_labels, ks)
        finally:
            evaluation._KNN_BLOCK, evaluation._KNN_MIN_ROWS = saved
        assert got == expected

    @pytest.mark.parametrize("n_test, n_train, bound_mb", [
        # 32 x 4,000 entries (2**17 // 4,000 rows) of float64 distances, int64
        # argpartition indices and two bool masks: 2.3 MB per block
        (1600, 4000, 4.0),
        # the 32-row floor binds: 32 x 10,000 entries, 5.8 MB per block
        (1000, 10000, 8.0),
    ])
    def test_knn_errors_peak_memory_is_one_block(self, n_test, n_train, bound_mb):
        rng = RngState(3, (n_train,))
        train, test = rng.normal((n_train, 4)), rng.normal((n_test, 4))
        train_labels, test_labels = rng.integers(4, size=n_train), rng.integers(4, size=n_test)
        tracemalloc.start()
        try:
            knn_errors(train, train_labels, test, test_labels, (3, 5, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2 ** 20

    def test_boundary_tie_goes_to_lowest_index(self):
        # distances 4, 1, 1, 1, 0: k=3 takes index 4, then the tied 1 and 2
        d2 = np.array([[4.0, 1.0, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(evaluation._k_nearest(d2, 3), [[4, 1, 2]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_non_finite_latent_raises(self, bad, side):
        z = RngState(7, (97,)).normal((12, 3))
        y = np.arange(12) % 3
        train, test = z.copy(), z.copy()
        (train if side == "train" else test)[5, 1] = bad
        with pytest.raises(NumericError):
            knn_errors(train, y, test, y, (3,))

    def test_invalid_k(self):
        z = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError):
            knn_errors(z, y, z, y, (5,))
        with pytest.raises(ValueError):
            knn_errors(z, y, z, y, (0,))


class TestEncodeEvalLatents:
    def make_ds(self, n=40):
        return make_blob_dataset(n // 4, RngState(5, (95,)), dim=16)

    def params16(self):
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=4)
        return init_params(arch, RngState(6, (96,)), k_init=3)

    def test_mean_mode_deterministic(self):
        ds = self.make_ds()
        params = self.params16()
        z1, c1 = encode_eval_latents(ds, params, RngState(7, (97,)), "mean")
        z2, c2 = encode_eval_latents(ds, params, RngState(8, (98,)), "mean")
        assert np.array_equal(z1, z2)
        assert np.array_equal(c1, c2)

    def test_sampled_mode_seeded(self):
        ds = self.make_ds()
        params = self.params16()
        z1, _ = encode_eval_latents(ds, params, RngState(9, (99,)), "sampled")
        z2, _ = encode_eval_latents(ds, params, RngState(9, (99,)), "sampled")
        assert np.array_equal(z1, z2)

    @pytest.mark.parametrize("mode", ["mean", "sampled"])
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_grouped_heads_match_per_row_reference(self, mode, chunk, monkeypatch):
        ds = self.make_ds(n=80)
        params = self.params16()
        h = encode_shared(ds.images, params)
        comps = np.argmax(infer_task_posterior(h, params), axis=1)
        assert len(np.unique(comps[:64])) >= 3  # one 64-row chunk holds three groups
        rng = RngState(11, (94,))
        ref = np.empty((len(ds), 3))
        for lo in range(0, len(ds), chunk):
            hi = min(lo + chunk, len(ds))
            noise = rng.normal((hi - lo, 3))  # one draw per chunk, in row order
            for i in range(lo, hi):
                mu, sig = component_posterior_params(h[i], int(comps[i]), params)
                ref[i] = mu + sig * noise[i - lo] if mode == "sampled" else mu
        monkeypatch.setattr(evaluation, "_ENCODE_CHUNK", chunk)
        z, c = encode_eval_latents(ds, params, RngState(11, (94,)), mode)
        assert np.array_equal(c, comps)
        assert np.allclose(z, ref, rtol=1e-12, atol=1e-12)

    def test_floor_sigma_sampled_close_to_mean(self):
        ds = self.make_ds()
        params = self.params16()
        params["lat_w"][:, 3:, :] = 0.0
        params["lat_b"][:, 3:] = -40.0  # softplus(-40) ~ 4e-18: sigma pinned at the floor
        zs, _ = encode_eval_latents(ds, params, RngState(10, (100,)), "sampled")
        zm, _ = encode_eval_latents(ds, params, RngState(10, (100,)), "mean")
        assert np.all(np.abs(zs - zm) < SIGMA_FLOOR * 4)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            encode_eval_latents(self.make_ds(), self.params16(), RngState(0, (101,)), "map")


class TestEvaluate:
    def test_fresh_model_reports_initial_k(self):
        ds = make_blob_dataset(30, RngState(11, (102,)), dim=16)
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=6)
        params = init_params(arch, RngState(12, (103,)), k_init=2)
        report = evaluate(params, ds, ds, RngState(13, (104,)), knn_train_subsample=50)
        assert report.n_active_components == 2

    def test_cluster_accuracy_recomputable_from_confusion(self):
        ds = make_blob_dataset(50, RngState(14, (105,)), dim=16)
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=6)
        params = init_params(arch, RngState(15, (106,)), k_init=4)
        report = evaluate(params, ds, ds, RngState(16, (107,)), knn_train_subsample=80)
        conf = report.confusion
        # majority mapping from confusion columns, ties to lowest class
        mapped_correct = sum(conf[:, k].max() for k in range(conf.shape[1]) if conf[:, k].sum())
        assert report.cluster_accuracy == pytest.approx(mapped_correct / conf.sum(), abs=1e-12)
        assert conf.sum(axis=1).tolist() == [50, 50, 50, 50]

    def test_read_only(self):
        ds = make_blob_dataset(25, RngState(17, (108,)), dim=16)
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=4)
        params = init_params(arch, RngState(18, (109,)), k_init=3)
        before = {name: buf.copy() for name, buf in params.buffers()}
        evaluate(params, ds, ds, RngState(19, (110,)), knn_train_subsample=40)
        for name, buf in params.buffers():
            assert np.array_equal(before[name], buf), name

    def test_empty_test_set_rejected(self):
        ds = make_blob_dataset(25, RngState(20, (111,)), dim=16)
        empty = ds.subset(np.arange(0))
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=4)
        params = init_params(arch, RngState(21, (112,)), k_init=2)
        with pytest.raises(ValueError):
            evaluate(params, empty, ds, RngState(22, (113,)))

    def subsample_case(self):
        """1,600 test rows, 200 train rows, and a 4-component toy net."""
        test = make_blob_dataset(400, RngState(23, (114,)), dim=16, split="test")
        train = make_blob_dataset(50, RngState(24, (115,)), dim=16)
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=4)
        return test, train, init_params(arch, RngState(25, (116,)), k_init=4)

    def test_subsampled_test_set_is_encoded_once(self, monkeypatch):
        test, train, params = self.subsample_case()
        rows = []

        def counting_encode(x, p):
            rows.append(len(x))
            return encode_shared(x, p)

        monkeypatch.setattr(evaluation, "encode_shared", counting_encode)
        evaluate(params, test, train, RngState(26, (117,)), knn_train_subsample=200,
                 knn_test_subsample=300)
        assert sum(rows) - 200 == len(test) == 1600

    def test_subsample_latents_match_encoding_the_subsample_alone(self):
        test, train, params = self.subsample_case()
        report = evaluate(params, test, train, RngState(27, (118,)), knn_train_subsample=150,
                          knn_test_subsample=300)
        rng = RngState(27, (118,))
        train_sub = train.subset(rng.permutation(200)[:150])
        test_sub = test.subset(rng.permutation(1600)[:300])
        train_z, _ = encode_eval_latents(train_sub, params, rng)
        test_z, _ = encode_eval_latents(test_sub, params, rng)
        assert report.knn_error == knn_errors(train_z, train_sub.labels, test_z,
                                              test_sub.labels, (3, 5, 10))


class TestIncremental:
    def one_hot_params(self, n_classes=4, dim=16):
        """Task head reads the class from the block structure of blob inputs."""
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=dim, encoder=(dim,), n_z=2, decoder=(4,), k_max=n_classes)
        params = init_params(arch, RngState(23, (114,)), k_init=n_classes)
        params["enc_w.0"][:] = np.eye(dim)
        params["enc_b.0"][:] = 0.0
        block = dim // n_classes
        params["task_w"][:] = 0.0
        for c in range(n_classes):
            params["task_w"][c, c * block:(c + 1) * block] = 25.0
        params["task_b"][:] = 0.0
        return params

    def test_perfect_posterior_both_one(self):
        ds = make_blob_dataset(40, RngState(24, (115,)), noise=0.01)
        params = self.one_hot_params()
        pairs = ((0, 1), (2, 3))
        assert incremental_class_accuracy(params, ds) == 1.0
        assert incremental_task_accuracy(params, ds, pairs) == 1.0

    def test_within_task_correct_across_task_dominated(self):
        # one-hot inputs; each row scores its own class 5 but pulls 20 toward
        # the other task, so the within-task ordering is right while the
        # unrestricted argmax always lands in the wrong task
        from mixvae.model import Architecture, init_params
        eye = np.eye(4)
        ds = Dataset(np.vstack([eye] * 10), np.tile(np.arange(4), 10), n_classes=4)
        arch = Architecture(input_dim=4, encoder=(4,), n_z=2, decoder=(4,), k_max=4)
        params = init_params(arch, RngState(25, (116,)), k_init=4)
        params["enc_w.0"][:] = np.eye(4)
        params["enc_b.0"][:] = 0.0
        params["task_b"][:] = 0.0
        w = np.zeros((4, 4))
        for c, partner_block in ((0, (2, 3)), (1, (2, 3)), (2, (0, 1)), (3, (0, 1))):
            w[c, c] = 5.0
            w[c, list(partner_block)] = 20.0
        params["task_w"][:] = w
        pairs = ((0, 1), (2, 3))
        assert incremental_task_accuracy(params, ds, pairs) == 1.0
        assert incremental_class_accuracy(params, ds) == 0.0

    def test_task_accuracy_dominates_class_accuracy(self):
        ds = make_blob_dataset(60, RngState(26, (117,)))
        from mixvae.model import Architecture, init_params
        arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=4)
        params = init_params(arch, RngState(27, (118,)), k_init=4)
        pairs = ((0, 1), (2, 3))
        assert (incremental_task_accuracy(params, ds, pairs)
                >= incremental_class_accuracy(params, ds))

    def test_two_class_toy_bruteforce_count(self):
        # component 0 votes class 0 for x[0] < 0.5; known confusions counted by hand
        ds = Dataset(np.array([[0.1] * 16, [0.9] * 16, [0.2] * 16, [0.8] * 16]),
                     np.array([0, 1, 1, 0]), n_classes=2)
        params = self.one_hot_params(n_classes=2)
        params["task_w"][:] = 0.0
        params["task_w"][0, 0] = -30.0
        params["task_w"][1, 0] = 30.0
        preds = [0 if x[0] < 0.5 else 1 for x in ds.images]
        expected = np.mean([p == t for p, t in zip(preds, ds.labels)])
        assert incremental_class_accuracy(params, ds) == pytest.approx(expected)


def test_evaluation_leaves_numpy_ma_unimported():
    # NumPy 2's np.unique imports numpy.ma on its first call; the child's last
    # call shows that this NumPy does, so the test can see it happen
    src = os.path.dirname(os.path.dirname(mixvae.__file__))
    child = f"""
import sys
sys.path.insert(0, {src!r})
import numpy as np
from mixvae.data import make_blob_dataset
from mixvae.evaluation import evaluate, incremental_class_accuracy, incremental_task_accuracy
from mixvae.model import Architecture, init_params
from mixvae.rng import RngState
ds = make_blob_dataset(20, RngState(28, (119,)), dim=16)
arch = Architecture(input_dim=16, encoder=(8, 6), n_z=3, decoder=(6, 8), k_max=4)
params = init_params(arch, RngState(29, (120,)), k_init=4)
seen = ['numpy.ma' in sys.modules]
evaluate(params, ds, ds, RngState(30, (121,)), knn_train_subsample=40)
incremental_class_accuracy(params, ds)
incremental_task_accuracy(params, ds, ((0, 1), (2, 3)))
seen.append('numpy.ma' in sys.modules)
np.unique(ds.labels)
print(*seen, 'numpy.ma' in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "True"]


class TestExports:
    def test_latent_csv_shape(self, tmp_path):
        path = tmp_path / "latents.csv"
        z = RngState(28, (119,)).normal((5, 3))
        export_latents_csv(path, z, np.arange(5), np.zeros(5, dtype=np.int64))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "index,label,component,z_0,z_1,z_2"
        assert len(lines) == 6

    def test_pgm_and_grid(self, tmp_path):
        samples = RngState(29, (120,)).uniform(0, 1, (4, 16))
        grid = sample_grid(samples, (4, 4), cols=2)
        assert grid.shape == (8, 8)
        path = tmp_path / "g.pgm"
        write_pgm(path, grid)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n8 8\n255\n")
        assert len(blob) == len(b"P5\n8 8\n255\n") + 64

    def test_grid_matrix_round_trip(self, tmp_path):
        m = RngState(30, (121,)).normal((6, 7))
        path = tmp_path / "m.mvmx"
        save_grid_matrix(path, m)
        assert np.array_equal(load_grid_matrix(path), m)
