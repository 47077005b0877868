import numpy as np
import pytest

from _oracles import as_tensor, assert_bitwise, interval_weights_loop, matricize, write_pgm_fixture
from repel2d import graphs
from repel2d.datasets import (
    ImageDataset,
    load_dataset,
    matrix_dataset,
    split_dataset,
    synthetic_confusable,
    vector_dataset,
    write_dataset_pgm,
)
from repel2d.embed_2d import method_matrices
from repel2d.errors import DataError, ParameterError
from repel2d.pgm import _interval_weights, block_resize, read_pgm, write_pgm


class TestPgm:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(5, 7))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (5, 7)
        np.testing.assert_allclose(back, img, atol=0.5 / 255)
        write_pgm_fixture(tmp_path / "fixture.pgm", img)
        assert path.read_bytes() == (tmp_path / "fixture.pgm").read_bytes()

    def test_ascii_roundtrip_16bit(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(3, 4))
        path = tmp_path / "img.pgm"
        write_pgm_fixture(path, img, maxval=65535, binary=False)
        np.testing.assert_allclose(read_pgm(path), img, atol=0.5 / 65535)

    def test_binary_16bit_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + (300).to_bytes(2, "big") + (0).to_bytes(2, "big"))
        img = read_pgm(path)
        assert img[0, 0] == pytest.approx(300 / 65535)

    def test_maxval_scaling(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n255\n" + bytes([255]))
        assert read_pgm(path)[0, 0] == 1.0

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n2 2 # trailing\n255\n0 128\n255 64\n")
        img = read_pgm(path)
        assert img[1, 0] == 1.0
        assert img[0, 1] == pytest.approx(128 / 255)

    def test_hand_built_ascii_values(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 2\n4\n0 1\n2 4\n")
        np.testing.assert_allclose(read_pgm(path), [[0.0, 0.25], [0.5, 1.0]])

    def test_undecodable_names_file(self, tmp_path):
        path = tmp_path / "broken.pgm"
        path.write_bytes(b"P5\n3 3\n255\n\x01\x02")  # truncated raster
        with pytest.raises(DataError) as info:
            read_pgm(path)
        assert "broken.pgm" in str(info.value)
        bad_magic = tmp_path / "color.pgm"
        bad_magic.write_bytes(b"P6\n1 1\n255\n\x01\x02\x03")
        with pytest.raises(DataError):
            read_pgm(bad_magic)

    @pytest.mark.parametrize(
        "data, pixels",
        [
            (b"P5#m\n2#w\n1#h\n255#x\n\n\x07\x09", [[7, 9]]),
            (b"P5\n1#c\n1\n255\n\x07", [[7]]),
            (b"P2\r\n2\t1\r\n255\r\n7\t9\r\n", [[7, 9]]),
            (b"P5\t2\t1\t255\t\x07\x09", [[7, 9]]),
            (b"P5\n2 1\n255\n\n ", [[10, 32]]),
            (b"P5\n1 1\n255#c\n\n\x07", [[7]]),
            (b"P5\n0002 " + b"0" * 30 + b"1\n00255\n\x07\x09", [[7, 9]]),
        ],
        ids=["comment-in-every-gap", "comment-after-field", "crlf-and-tab", "tab", "whitespace-valued-raster",
             "comment-then-delimiter-after-maxval", "leading-zeros"],
    )
    def test_header_grammar_accepts(self, tmp_path, data, pixels):
        # exactly one whitespace byte ends the header, so a P5 raster may
        # start with a whitespace-valued sample; a comment after maxval is
        # skipped when that byte follows it
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        np.testing.assert_array_equal(read_pgm(path), np.array(pixels) / 255)

    @pytest.mark.parametrize(
        "data",
        [
            b"P5\n2 1\n",
            b"P5\n2 1 # no newline",
            b"P5\n+1 1\n255\n\x07",
            b"P5\n1_0 1\n255\n" + bytes(10),
            b"P5\nx 1\n255\n\x07",
            b"P51 1\n255\n\x07",
            b"P5\n1 1\n255#c\n\x07",
            b"P5\n1 1\n255",
            b"",
            b"P5\n" + b"9" * 5000 + b" 1\n255\n\x07",
        ],
        ids=["truncated", "unterminated-comment", "signed", "underscore", "not-a-number", "no-separator-after-magic",
             "comment-into-raster", "maxval-at-end", "empty", "beyond-int-digit-limit"],
    )
    def test_header_grammar_rejects(self, tmp_path, data):
        path = tmp_path / "broken.pgm"
        path.write_bytes(data)
        with pytest.raises(DataError, match="broken.pgm"):
            read_pgm(path)

    @pytest.mark.parametrize("src", [1, 2, 3, 5, 7, 46, 92, 112])
    @pytest.mark.parametrize("dst", [1, 2, 3, 4, 23, 46, 56, 100, 129])
    def test_interval_weights_match_the_cell_loop(self, src, dst):
        assert_bitwise(_interval_weights(src, dst), interval_weights_loop(src, dst))

    def test_resize_constant_stays_constant(self):
        img = np.full((4, 4), 0.6)
        np.testing.assert_allclose(block_resize(img, (2, 2)), np.full((2, 2), 0.6))

    def test_resize_divisible_is_block_mean(self):
        img = np.arange(16, dtype=float).reshape(4, 4)
        out = block_resize(img, (2, 2))
        np.testing.assert_allclose(out[0, 0], np.mean(img[:2, :2]))
        np.testing.assert_allclose(out[1, 1], np.mean(img[2:, 2:]))

    def test_resize_non_divisible_preserves_mean(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(5, 7))
        out = block_resize(img, (2, 3))
        assert out.shape == (2, 3)
        assert out.mean() == pytest.approx(img.mean(), rel=1e-10)


class TestLoadDataset:
    def write_toy(self, root, per_class=3, classes=2, shape=(2, 2)):
        rng = np.random.default_rng(3)
        for c in range(classes):
            cdir = root / f"class{c}"
            cdir.mkdir(parents=True)
            for j in range(per_class):
                write_pgm_fixture(cdir / f"im{j}.pgm", rng.uniform(size=shape), binary=(j % 2 == 0))

    def test_loads_expected_counts_and_values(self, tmp_path):
        root = tmp_path / "toy"
        (root / "a").mkdir(parents=True)
        (root / "b").mkdir()
        write_pgm_fixture(root / "a" / "x.pgm", np.array([[0.0, 1.0], [0.5, 0.25]]), binary=False)
        write_pgm(root / "a" / "y.pgm", np.zeros((2, 2)))
        write_pgm(root / "b" / "x.pgm", np.ones((2, 2)))
        write_pgm(root / "b" / "y.pgm", np.full((2, 2), 0.5))
        ds = load_dataset(root)
        assert ds.n == 4
        assert ds.class_names == ("a", "b")
        np.testing.assert_array_equal(ds.labels, [0, 0, 1, 1])
        np.testing.assert_allclose(ds.images[0], [[0.0, 1.0], [0.5, 0.25]], atol=1 / 510)

    def test_deterministic_order(self, tmp_path):
        root = tmp_path / "toy"
        self.write_toy(root)
        a = load_dataset(root)
        b = load_dataset(root)
        np.testing.assert_array_equal(a.images, b.images)

    def test_mixed_sizes_need_resize(self, tmp_path):
        root = tmp_path / "toy"
        (root / "a").mkdir(parents=True)
        write_pgm(root / "a" / "x.pgm", np.zeros((2, 2)))
        write_pgm(root / "a" / "y.pgm", np.zeros((3, 3)))
        with pytest.raises(DataError):
            load_dataset(root)
        ds = load_dataset(root, resize=(2, 2))
        assert ds.image_shape == (2, 2)

    def test_error_names_bad_file(self, tmp_path):
        root = tmp_path / "toy"
        (root / "a").mkdir(parents=True)
        (root / "a" / "bad.pgm").write_bytes(b"not a graymap")
        with pytest.raises(DataError) as info:
            load_dataset(root)
        assert "bad.pgm" in str(info.value)

    def test_empty_root_rejected(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        with pytest.raises(DataError):
            load_dataset(root)


class TestLabels:
    # every label names a class: a label past the names would read as an
    # empty class in the split, and a negative one would reach bincount
    @pytest.mark.parametrize(
        "labels",
        [[0, 0, 0, 5, 5, 5], [0, 0, 0, -1, -1, -1]],
        ids=["past-the-names", "negative"],
    )
    def test_label_outside_the_class_names_rejected(self, labels):
        images = np.zeros((6, 2, 2))
        with pytest.raises(DataError, match=r"labels must lie in \[0, 2\)"):
            ImageDataset("x", images, labels, ("a", "b"))

    def test_fractional_labels_rejected(self):
        # an int64 cast would truncate these to [0, 0, 1, 1]
        images = np.zeros((4, 2, 2))
        with pytest.raises(DataError, match="labels must be whole numbers"):
            ImageDataset("x", images, [0.5, 0.9, 1.2, 1.7], ("a", "b"))
        for whole in ([0.0, 0.0, 1.0, 1.0], [False, False, True, True]):
            assert ImageDataset("x", images, whole, ("a", "b")).labels.tolist() == [0, 0, 1, 1]


class TestSplit:
    def make(self, per_class=10, classes=2):
        rng = np.random.default_rng(4)
        n = per_class * classes
        return ImageDataset(
            "toy",
            rng.uniform(size=(n, 3, 3)),
            np.repeat(np.arange(classes), per_class),
            tuple(f"c{i}" for i in range(classes)),
        )

    def test_leave_one_out(self):
        ds = self.make(per_class=4)
        train, test = split_dataset(ds, 3, 0)
        assert len(train) == 6 and len(test) == 2
        assert np.all(np.bincount(ds.labels[test]) == 1)

    def test_identical_seeds_identical_splits(self):
        ds = self.make()
        for r in range(3):
            a = split_dataset(ds, 5, 42, r)
            b = split_dataset(ds, 5, 42, r)
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
        r0, r1 = split_dataset(ds, 5, 42, 0), split_dataset(ds, 5, 42, 1)
        assert not np.array_equal(r0[0], r1[0])

    def test_disjoint_exhaustive_balanced(self):
        ds = self.make()
        train, test = split_dataset(ds, 5, 7, 3)
        assert set(train) & set(test) == set()
        assert len(train) + len(test) == ds.n
        assert np.all(np.bincount(ds.labels[train]) == 5)

    def test_train_frequency_matches_direct_simulation(self):
        # 10 images/class, half in train, 20 realizations: per-image train
        # frequencies must equal a from-scratch simulation of the documented
        # generator (Philox keyed by [master, realization], one per-class
        # permutation each), and hover around 1/2
        ds = self.make(per_class=10, classes=2)
        counts = np.zeros(ds.n)
        for r in range(20):
            train, _ = split_dataset(ds, 5, 3, r)
            counts[train] += 1
        oracle = np.zeros(ds.n)
        for r in range(20):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([3, r])))
            for c in range(2):
                members = np.nonzero(ds.labels == c)[0]
                oracle[members[rng.permutation(members.size)[:5]]] += 1
        np.testing.assert_array_equal(counts, oracle)
        freq = counts / 20
        assert freq.mean() == pytest.approx(0.5)
        # frozen band from the simulation above (binomial spread at 20 draws)
        assert np.all(np.abs(freq - 0.5) <= 0.25)

    def test_insufficient_images(self):
        ds = self.make(per_class=3)
        with pytest.raises(ParameterError):
            split_dataset(ds, 3, 0)


class TestConversions:
    def test_matrix_dataset_shapes(self):
        ds = synthetic_confusable(6, seed=1)
        images, labels = matrix_dataset(ds, np.arange(8))
        assert images.shape == (8, 8, 8)
        np.testing.assert_array_equal(labels, ds.labels[:8])
        np.testing.assert_array_equal(images[2], ds.images[2])

    def test_vector_dataset_column_major(self):
        ds = synthetic_confusable(6, seed=1)
        data, labels = vector_dataset(ds, [0])
        np.testing.assert_array_equal(data[:, 0], ds.images[0].reshape(-1, order="F"))
        np.testing.assert_array_equal(labels, ds.labels[:1])


class TestStackLayout:
    """Image stacks are C-contiguous (n, m1, m2) float64 arrays from load to
    score; the flattened views are column-major per image."""

    @pytest.fixture(scope="class")
    def split(self):
        ds = synthetic_confusable(300, seed=0)
        return ds, split_dataset(ds, 30, 0, 0)[0]

    def test_matrix_dataset_is_the_indexed_stack(self, split):
        ds, idx = split
        images = matrix_dataset(ds, idx)[0]
        assert images.shape == (idx.size, 8, 8) and images.dtype == np.float64
        assert images.flags.c_contiguous
        np.testing.assert_array_equal(images, ds.images[idx])

    def test_vectorized_points_match_the_mode_3_unfolding(self, split, monkeypatch):
        # the samples method_matrices builds its graphs on, from an image
        # stack and from a vector data matrix's transpose, and the rows of
        # that transpose
        ds, idx = split
        seen = []
        sq_distances = graphs.sq_distances
        monkeypatch.setattr(graphs, "sq_distances", lambda points: seen.append(points) or sq_distances(points))
        images, labels = matrix_dataset(ds, idx)
        data, _ = vector_dataset(ds, idx)
        method_matrices("2D-OLPP", images, labels)
        method_matrices("2D-OLPP", data.T, labels)
        oracle = matricize(as_tensor(ds.images[idx]), 3)
        for points in (*seen, data.T):
            np.testing.assert_array_equal(points, oracle)
            assert points.strides == oracle.strides
        assert len(seen) == 2 and np.shares_memory(seen[1], data)

    def test_vector_dataset_is_the_column_major_flatten(self, split):
        ds, idx = split
        data = vector_dataset(ds, idx)[0]
        loop = np.stack([ds.images[i].reshape(-1, order="F") for i in idx], axis=1)
        np.testing.assert_array_equal(data, loop)
        assert data.strides == loop.strides


class TestSynthetic:
    def test_deterministic(self):
        a = synthetic_confusable(8, seed=5)
        b = synthetic_confusable(8, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        assert a.images.min() >= 0.0 and a.images.max() <= 1.0

    def test_confusable_pair_is_actually_confusable(self):
        # 1-NN in the input space must mix classes c0 and c1 but not c2/c3
        ds = synthetic_confusable(20, seed=0)
        flat = ds.images.reshape(ds.n, -1)
        sq = ((flat[:, None, :] - flat[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(sq, np.inf)
        nearest = ds.labels[np.argmin(sq, axis=1)]
        confusable = (ds.labels < 2)
        cross = np.mean(nearest[confusable] != ds.labels[confusable])
        easy = np.mean(nearest[~confusable] != ds.labels[~confusable])
        assert cross > 0.2
        assert easy < 0.1

    def test_pgm_roundtrip(self, tmp_path):
        ds = synthetic_confusable(5, seed=2)
        root = write_dataset_pgm(ds, tmp_path / "synth")
        back = load_dataset(root)
        assert back.n == ds.n
        assert back.class_names == ds.class_names
        np.testing.assert_allclose(back.images, ds.images, atol=0.5 / 255)
