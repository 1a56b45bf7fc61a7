import gzip
import struct

import numpy as np
import pytest

from mixvae.data import (
    Dataset,
    StreamSpec,
    blob_prototypes,
    load_idx,
    load_matrix_dataset,
    make_blob_dataset,
    next_batch,
    save_matrix_dataset,
    split_train_valid,
)
from mixvae.errors import ConfigError, DataFormatError, StreamExhausted
from mixvae.rng import RngState


def write_pair(tmp_path, images, labels, gz=False):
    """An IDX image and label file pair, gzipped when gz.
    images: (N, rows, cols) uint8; labels: (N,) uint8."""
    ip = tmp_path / ("imgs.gz" if gz else "imgs")
    lp = tmp_path / ("labs.gz" if gz else "labs")
    pack = gzip.compress if gz else bytes
    ip.write_bytes(pack(struct.pack(">IIII", 0x803, *images.shape) + images.tobytes()))
    lp.write_bytes(pack(struct.pack(">II", 0x801, len(labels)) + labels.tobytes()))
    return ip, lp


class TestIdx:
    def test_known_bytes_round_trip(self, tmp_path):
        images = np.array([[[0, 255], [128, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
        labels = np.array([7, 2], dtype=np.uint8)
        ds = load_idx(*write_pair(tmp_path, images, labels))
        assert ds.images.shape == (2, 4)
        assert np.allclose(ds.images[0], [0.0, 1.0, 128 / 255, 64 / 255])
        assert np.array_equal(ds.labels, [7, 2])
        assert ds.image_hw == (2, 2)

    def test_gzip_transparent(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        labels = np.array([0, 1, 2], dtype=np.uint8)
        ds = load_idx(*write_pair(tmp_path, images, labels, gz=True))
        assert len(ds) == 3

    def test_wrong_magic(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8),
                            np.zeros(1, dtype=np.uint8))
        blob = bytearray(ip.read_bytes())
        blob[3] = 0x99
        ip.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                            np.zeros(2, dtype=np.uint8))
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="payload"):
            load_idx(ip, lp)

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("damage", ["cut in half", "corrupt header", "corrupt deflate",
                                        "corrupt crc"])
    def test_truncated_or_corrupt_gzip(self, tmp_path, which, damage):
        files = write_pair(tmp_path, np.arange(200, dtype=np.uint8).reshape(2, 10, 10),
                           np.arange(2, dtype=np.uint8), gz=True)
        blob = bytearray(files[which].read_bytes())
        if damage == "cut in half":
            blob = blob[:len(blob) // 2]
        elif damage == "corrupt header":
            blob[0] ^= 0xFF
        elif damage == "corrupt deflate":
            blob[10] ^= 0xFF  # the first byte after the 10-byte gzip header
        else:
            blob[-8] ^= 0xFF  # the CRC of the uncompressed bytes
        files[which].write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=f"gzip: {files[which]}"):
            load_idx(*files)

    def test_count_mismatch(self, tmp_path):
        ip, _ = write_pair(tmp_path, np.zeros((3, 2, 2), dtype=np.uint8),
                           np.zeros(3, dtype=np.uint8))
        lp = tmp_path / "short"
        lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
        with pytest.raises(DataFormatError, match="count"):
            load_idx(ip, lp)


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        rng = RngState(0, (70,))
        ds = Dataset(rng.uniform(0, 1, (10, 6)), rng.integers(3, size=10),
                     n_classes=3, image_hw=(2, 3))
        path = tmp_path / "d.mvds"
        save_matrix_dataset(path, ds)
        back = load_matrix_dataset(path)
        assert np.array_equal(back.images, ds.images)
        assert np.array_equal(back.labels, ds.labels)
        assert back.n_classes == 3
        assert back.image_hw == (2, 3)

    def test_round_trip_of_zero_rows(self, tmp_path):
        path = tmp_path / "empty.mvds"
        save_matrix_dataset(path, Dataset(np.zeros((0, 6)), np.zeros(0, dtype=np.int64),
                                          n_classes=3, image_hw=(2, 3)))
        back = load_matrix_dataset(path)
        assert back.images.shape == (0, 6) and back.labels.shape == (0,)
        assert back.n_classes == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"nope" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_matrix_dataset(path)

    @pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_rejected(self, tmp_path, pixel):
        ds = Dataset(np.full((4, 3), 0.5), np.zeros(4, dtype=np.int64), n_classes=1)
        path = tmp_path / "nan.mvds"
        save_matrix_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, len(blob) - 8 * 4 - 8 * 5, pixel)  # intensity 7 of 12
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="payload"):
            load_matrix_dataset(path)

    def test_truncated(self, tmp_path):
        ds = Dataset(np.zeros((4, 3)), np.zeros(4, dtype=np.int64), n_classes=1)
        path = tmp_path / "t.mvds"
        save_matrix_dataset(path, ds)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="payload"):
            load_matrix_dataset(path)

    @pytest.mark.parametrize("cut", [6, 20])  # right after the magic; mid-header
    def test_truncated_header(self, tmp_path, cut):
        ds = Dataset(np.zeros((4, 3)), np.zeros(4, dtype=np.int64), n_classes=1)
        path = tmp_path / "h.mvds"
        save_matrix_dataset(path, ds)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(DataFormatError, match=f"header: .* has {cut} bytes, shorter than its 39-byte header"):
            load_matrix_dataset(path)


class TestSplit:
    def make(self, n=100):
        rng = RngState(1, (71,))
        return Dataset(rng.uniform(0, 1, (n, 4)), rng.integers(5, size=n), n_classes=5)

    def test_counts(self):
        train, valid = split_train_valid(self.make(60), 10, RngState(2, (72,)))
        assert len(train) == 50
        assert len(valid) == 10

    def test_zero_valid_identity(self):
        ds = self.make(30)
        train, valid = split_train_valid(ds, 0, RngState(3, (73,)))
        assert np.array_equal(train.images, ds.images)
        assert len(valid) == 0

    def test_deterministic(self):
        ds = self.make(50)
        t1, v1 = split_train_valid(ds, 20, RngState(4, (74,)))
        t2, v2 = split_train_valid(ds, 20, RngState(4, (74,)))
        assert np.array_equal(t1.images, t2.images)
        assert np.array_equal(v1.labels, v2.labels)

    def test_partition_is_disjoint_and_complete(self):
        ds = self.make(40)
        train, valid = split_train_valid(ds, 15, RngState(5, (75,)))
        joined = np.concatenate([train.images, valid.images])
        assert joined.shape == ds.images.shape
        assert np.allclose(np.sort(joined, axis=0), np.sort(ds.images, axis=0))

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            split_train_valid(self.make(10), 10, RngState(0, (76,)))


class TestBlobs:
    def test_shapes_and_range(self):
        ds = make_blob_dataset(50, RngState(6, (77,)))
        assert ds.images.shape == (200, 16)
        assert ds.images.min() >= 0 and ds.images.max() <= 1
        assert ds.n_classes == 4

    def test_classes_well_separated(self):
        ds = make_blob_dataset(100, RngState(7, (78,)), noise=0.05)
        means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) > 1.0

    def test_class_hot_exactly_on_own_block(self):
        # class c is hot on [c*w, (c+1)*w), w = dim // n_classes, and cold elsewhere
        n_classes, dim = 4, 16
        w = dim // n_classes
        protos = blob_prototypes(n_classes, dim)
        ds = make_blob_dataset(200, RngState(11, (79,)), n_classes=n_classes, dim=dim)
        for c in range(n_classes):
            block = np.zeros(dim, dtype=bool)
            block[c * w:(c + 1) * w] = True
            assert np.array_equal(protos[c] > 0.5, block), c
            mean = ds.images[ds.labels == c].mean(axis=0)
            assert np.array_equal(mean > 0.5, block), (c, np.round(mean, 2))


def blob_set(n_per_class=200):
    return make_blob_dataset(n_per_class, RngState(8, (79,)))


class TestStreams:
    def spec(self, mode, **kw):
        base = dict(mode=mode, total_steps=400, batch_size=32,
                    class_order=(0, 1, 2, 3))
        base.update(kw)
        return StreamSpec(**base)

    def test_sequential_block_purity(self):
        ds = blob_set()
        spec = self.spec("sequential")
        for step, expected in ((0, 0), (99, 0), (100, 1), (250, 2), (399, 3)):
            batch = next_batch(spec, ds, step, RngState(9, (80, step)))
            assert np.all(batch.labels == expected), step

    def test_iid_class_frequencies(self):
        ds = blob_set()
        spec = self.spec("iid", batch_size=100)
        labels = np.concatenate([
            next_batch(spec, ds, s, RngState(10, (81, s))).labels for s in range(100)])
        freq = np.bincount(labels, minlength=4) / len(labels)
        assert np.all(np.abs(freq - 0.25) < 0.025)

    def test_drift_ramp_midpoint(self):
        ds = blob_set(600)
        spec = self.spec("continuous_drift", total_steps=400, drift_window=50,
                         batch_size=1000)
        batch = next_batch(spec, ds, 125, RngState(11, (82,)))  # halfway into block 1's window
        frac_new = np.mean(batch.labels == 1)
        assert abs(frac_new - 0.5) < 0.05
        assert set(np.unique(batch.labels)) <= {0, 1}

    def test_drift_outside_window_pure(self):
        ds = blob_set()
        spec = self.spec("continuous_drift", drift_window=20)
        batch = next_batch(spec, ds, 150, RngState(12, (83,)))
        assert np.all(batch.labels == 1)

    def test_drift_proportions_sum_to_one(self):
        ds = blob_set()
        spec = self.spec("continuous_drift", drift_window=50, batch_size=64)
        batch = next_batch(spec, ds, 110, RngState(13, (84,)))
        n_old = np.sum(batch.labels == 0)
        n_new = np.sum(batch.labels == 1)
        assert n_old + n_new == 64

    def test_split_task_pools(self):
        ds = blob_set()
        spec = self.spec("split_task", task_pairs=((0, 1), (2, 3)), class_order=())
        early = next_batch(spec, ds, 10, RngState(14, (85,)))
        late = next_batch(spec, ds, 350, RngState(15, (86,)))
        assert set(np.unique(early.labels)) <= {0, 1}
        assert set(np.unique(late.labels)) <= {2, 3}

    def test_determinism(self):
        ds = blob_set()
        spec = self.spec("sequential")
        b1 = next_batch(spec, ds, 42, RngState(16, (87, 42)))
        b2 = next_batch(spec, ds, 42, RngState(16, (87, 42)))
        assert np.array_equal(b1.x, b2.x)
        assert np.array_equal(b1.labels, b2.labels)

    def test_exhausted_stream(self):
        ds = blob_set()
        spec = self.spec("sequential")
        with pytest.raises(StreamExhausted):
            next_batch(spec, ds, 400, RngState(17, (88,)))

    def test_block_budget_divisibility(self):
        spec = StreamSpec(mode="sequential", total_steps=100000, batch_size=64,
                          class_order=tuple(range(10)))
        assert spec.block_steps == 10 ** 4
        spec50 = StreamSpec(mode="sequential", total_steps=100000, batch_size=64,
                            class_order=tuple(range(50)))
        assert spec50.block_steps == 2 * 10 ** 3
        with pytest.raises(ConfigError):
            StreamSpec(mode="sequential", total_steps=1001, batch_size=4,
                       class_order=(0, 1))

    def test_drift_window_bounded_by_block(self):
        with pytest.raises(ConfigError):
            StreamSpec(mode="continuous_drift", total_steps=400, batch_size=4,
                       class_order=(0, 1, 2, 3), drift_window=150)
