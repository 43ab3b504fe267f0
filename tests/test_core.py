import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pfc.core import (
    FeatureSet,
    _to_window,
    check_layer_shapes,
    class_stats,
    load_featureset,
    read_header,
    save_featureset,
)


def centered_class_means(fs):
    """d x K matrix whose column k is h_k - h_G."""
    stats = class_stats(fs)
    return stats.class_means - stats.global_mean[:, None]


def naive_stats(features, num_classes, per_class):
    d = features.shape[0]
    class_means = np.zeros((d, num_classes))
    for k in range(num_classes):
        block = features[:, k * per_class : (k + 1) * per_class]
        class_means[:, k] = block.mean(axis=1)
    global_mean = class_means.mean(axis=1)
    tr_within = 0.0
    for k in range(num_classes):
        for i in range(per_class):
            diff = features[:, k * per_class + i] - class_means[:, k]
            tr_within += float(diff @ diff)
    tr_within /= num_classes * per_class
    tr_between = 0.0
    for k in range(num_classes):
        diff = class_means[:, k] - global_mean
        tr_between += float(diff @ diff)
    tr_between /= num_classes
    return class_means, global_mean, tr_within, tr_between


def random_featureset(rng, num_classes=None, per_class=None, dim=None):
    k = num_classes if num_classes is not None else int(rng.integers(2, 6))
    n = per_class if per_class is not None else int(rng.integers(1, 11))
    d = dim if dim is not None else int(rng.integers(1, 9))
    return FeatureSet(rng.standard_normal((d, k * n)), k, n)


class TestFeatureSet:
    def test_basic_attributes(self):
        fs = FeatureSet(np.arange(12.0).reshape(2, 6), num_classes=3, per_class=2)
        assert fs.dim == 2
        assert fs.num_samples == 6
        np.testing.assert_array_equal(fs.labels(), [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(fs.features[:, 2:4], [[2.0, 3.0], [8.0, 9.0]])

    def test_column_count_must_match(self):
        with pytest.raises(ValueError):
            FeatureSet(np.zeros((2, 5)), num_classes=2, per_class=2)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            FeatureSet(np.zeros((2, 3)), num_classes=1, per_class=3)

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 4))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            FeatureSet(bad, num_classes=2, per_class=2)

    def test_features_are_read_only(self):
        fs = FeatureSet(np.zeros((2, 4)), num_classes=2, per_class=2)
        with pytest.raises(ValueError):
            fs.features[0, 0] = 1.0

    def test_adopts_a_read_only_owner(self):
        arr = np.arange(8.0).reshape(2, 4).copy()
        arr.setflags(write=False)
        fs = FeatureSet(arr, num_classes=2, per_class=2)
        assert np.shares_memory(fs.features, arr)

    def test_adopts_a_read_only_view_of_a_read_only_owner(self):
        owner = np.arange(24.0).reshape(2, 3, 4).copy()
        owner.setflags(write=False)
        fs = FeatureSet(owner[1, :2], num_classes=2, per_class=2)
        assert np.shares_memory(fs.features, owner)

    def test_copies_a_read_only_input_out_of_c_order(self):
        f_ordered = np.asfortranarray(np.arange(8.0).reshape(2, 4))
        owner = np.arange(16.0).reshape(2, 8).copy()
        for arr in (f_ordered, owner):
            arr.setflags(write=False)
        for arr in (f_ordered, owner[:, ::2]):
            fs = FeatureSet(arr, num_classes=2, per_class=2)
            assert fs.features.flags.c_contiguous
            assert not np.shares_memory(fs.features, arr)

    def test_copies_a_writable_input(self):
        arr = np.arange(8.0).reshape(2, 4).copy()
        fs = FeatureSet(arr, num_classes=2, per_class=2)
        arr[0, 0] = 100.0
        assert not np.shares_memory(fs.features, arr)
        np.testing.assert_array_equal(fs.features, np.arange(8.0).reshape(2, 4))

    def test_copies_a_read_only_view_of_a_writable_base(self):
        base = np.arange(8.0).reshape(2, 4).copy()
        view = base[:]
        view.setflags(write=False)
        fs = FeatureSet(view, num_classes=2, per_class=2)
        base[0, 0] = 100.0
        assert not np.shares_memory(fs.features, base)
        assert fs.features[0, 0] == 0.0


class TestClassStats:
    def test_hand_example(self):
        fs = FeatureSet(np.array([[0.0, 2.0, 4.0, 6.0]]), num_classes=2, per_class=2)
        stats = class_stats(fs)
        np.testing.assert_allclose(stats.class_means, [[1.0, 5.0]])
        np.testing.assert_allclose(stats.global_mean, [3.0])
        assert stats.tr_within == pytest.approx(1.0)
        assert stats.tr_between == pytest.approx(4.0)

    def test_constant_features(self):
        fs = FeatureSet(np.full((3, 6), 7.5), num_classes=2, per_class=3)
        stats = class_stats(fs)
        assert stats.tr_within == 0.0
        assert stats.tr_between == 0.0
        np.testing.assert_array_equal(stats.class_means, np.full((3, 2), 7.5))

    def test_collapsed_features_have_zero_within(self):
        rng = np.random.default_rng(3)
        means = rng.standard_normal((4, 3))
        fs = FeatureSet(np.repeat(means, 5, axis=1), num_classes=3, per_class=5)
        assert class_stats(fs).tr_within == pytest.approx(0.0, abs=1e-30)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            fs = random_featureset(rng)
            stats = class_stats(fs)
            means, gmean, tw, tb = naive_stats(fs.features, fs.num_classes, fs.per_class)
            np.testing.assert_allclose(stats.class_means, means, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(stats.global_mean, gmean, rtol=1e-12, atol=1e-12)
            assert stats.tr_within == pytest.approx(tw, rel=1e-12, abs=1e-15)
            assert stats.tr_between == pytest.approx(tb, rel=1e-12, abs=1e-15)

    @given(seed=st.integers(0, 10_000), shift=st.floats(-50, 50))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        fs = random_featureset(rng)
        offset = shift * rng.standard_normal((fs.dim, 1))
        moved = FeatureSet(fs.features + offset, fs.num_classes, fs.per_class)
        a, b = class_stats(fs), class_stats(moved)
        scale = 1.0 + abs(a.tr_within) + abs(a.tr_between)
        assert abs(a.tr_within - b.tr_within) < 1e-10 * scale
        assert abs(a.tr_between - b.tr_between) < 1e-10 * scale
        np.testing.assert_allclose(
            centered_class_means(fs),
            centered_class_means(moved),
            atol=1e-10 * scale,
        )


class TestCenteredClassMeans:
    def test_hand_example(self):
        fs = FeatureSet(np.array([[0.0, 2.0, 4.0, 6.0]]), num_classes=2, per_class=2)
        np.testing.assert_allclose(centered_class_means(fs), [[-2.0, 2.0]])

    def test_identical_means_give_zero(self):
        fs = FeatureSet(np.tile([[1.0, -1.0]], (1, 2)), num_classes=2, per_class=2)
        np.testing.assert_array_equal(centered_class_means(fs), [[0.0, 0.0]])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_columns_sum_to_zero(self, seed):
        rng = np.random.default_rng(seed)
        fs = random_featureset(rng)
        centered = centered_class_means(fs)
        scale = 1.0 + float(np.abs(centered).max())
        np.testing.assert_allclose(centered.sum(axis=1), 0.0, atol=1e-12 * scale)


class TestScaleWindow:
    def test_inside_the_window_passes_uncopied(self):
        a, b = np.array([[2.0**-200, -3.0]]), np.array([2.0**199])
        out = _to_window(a, b)
        assert out[0] is a and out[1] is b

    def test_zero_arrays_pass_uncopied(self):
        a = np.zeros((2, 3))
        assert _to_window(a)[0] is a

    @pytest.mark.parametrize("exponent", [-1000, -203, 201, 1000])
    def test_one_exact_shift_into_the_window(self, exponent):
        rng = np.random.default_rng(exponent % 7)
        a, b = rng.standard_normal((3, 4)), 1e-3 * rng.standard_normal(5)
        a[0, 0] = -3.5  # the largest magnitude
        shifted = _to_window(2.0**exponent * a, 2.0**exponent * b)
        # -3.5 = -0.875 * 2^2 lands at -0.875: every entry moves by 2^-2
        np.testing.assert_array_equal(shifted[0], a / 4.0)
        np.testing.assert_array_equal(shifted[1], b / 4.0)


class TestCheckLayerShapes:
    def test_requires_shared_shape(self):
        a = FeatureSet(np.zeros((2, 4)), 2, 2)
        b = FeatureSet(np.zeros((3, 4)), 2, 2)
        shapes = [(fs.num_classes, fs.per_class, fs.dim) for fs in (a, b)]
        with pytest.raises(ValueError, match=r"^layer 1 has shape \(K=2, n=2, d=3\), "
                                             r"expected \(K=2, n=2, d=2\)$"):
            check_layer_shapes(shapes)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        fs = random_featureset(rng, num_classes=3, per_class=4, dim=5)
        path = tmp_path / "features.txt"
        save_featureset(path, fs)
        loaded = load_featureset(path)
        assert (loaded.num_classes, loaded.per_class, loaded.dim) == (3, 4, 5)
        np.testing.assert_array_equal(loaded.features, fs.features)

    def test_load_adopts_the_parsed_array(self, tmp_path, monkeypatch):
        fs = random_featureset(np.random.default_rng(8), num_classes=2, per_class=3, dim=4)
        path = tmp_path / "features.txt"
        save_featureset(path, fs)
        parsed = []
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            parsed.append(real_loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert np.shares_memory(load_featureset(path).features, parsed[0])

    @staticmethod
    def per_value_text(fs):
        """The writer's output as formatted value by value over numpy
        scalars, the formula it replaced."""
        lines = [f"{fs.num_classes} {fs.per_class} {fs.dim}\n"]
        lines += [" ".join(f"{v:.17g}" for v in row) + "\n" for row in fs.features]
        return "".join(lines)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda s: (s[0], 2 * s[1])),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=200)
    def test_text_matches_per_value_formula(self, tmp_path_factory, features):
        fs = FeatureSet(features, num_classes=2, per_class=features.shape[1] // 2)
        path = tmp_path_factory.mktemp("rows") / "features.txt"
        save_featureset(path, fs)
        assert path.read_text() == self.per_value_text(fs)

    def test_edge_values_match_per_value_formula(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1.0,
                  -1.0, 0.1, -7.25, 1e308, -1.7976931348623157e308, 1e-300]
        fs = FeatureSet(np.array(values).reshape(2, 6), num_classes=3, per_class=2)
        path = tmp_path / "features.txt"
        save_featureset(path, fs)
        text = path.read_text()
        assert text == self.per_value_text(fs)
        assert text.splitlines()[1].split()[0] == "-0"
        np.testing.assert_array_equal(
            np.signbit(load_featureset(path).features), np.signbit(fs.features)
        )

    def test_header_line(self, tmp_path):
        fs = FeatureSet(np.zeros((3, 8)), num_classes=2, per_class=4)
        path = tmp_path / "features.txt"
        save_featureset(path, fs)
        assert path.read_text().splitlines()[0] == "2 4 3"

    def test_load_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 4\n0 0\n")
        with pytest.raises(ValueError, match="bad.txt: "):
            load_featureset(path)

    @pytest.mark.parametrize("text, cause", [
        ("a b c\n0 0\n0 0\n", "expected an integer header"),
        ("2.0 1 2\n0 0\n0 0\n", "expected an integer header"),
        ("2 1 2\n0 0\n0 abc\n", "could not convert string 'abc'"),
        ("2 1 2\n0 0\n0\n", "the number of columns changed"),
        ("2 1 2\n0 nan\n0 0\n", "features contain NaN or Inf"),
        ("1 2 2\n0 0\n0 0\n", "num_classes must be >= 2, got 1"),
        ("2 1 2\n0 0\n", "expected 2 x 2 values, got 1 x 2"),
    ], ids=["letters", "float", "cell", "ragged", "nan", "one-class", "row-count"])
    def test_load_error_names_the_file_once(self, tmp_path, text, cause):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_featureset(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
        assert cause in message

    @pytest.mark.parametrize("header, message", [
        ("1 2 2", "header field K: num_classes must be >= 2, got 1"),
        ("0 1 2", "header field K: num_classes must be >= 2, got 0"),
        ("2 -1 2", "header field n: per_class must be >= 1, got -1"),
        ("2 0 2", "header field n: per_class must be >= 1, got 0"),
        ("2 1 0", "header field d: dim must be >= 1, got 0"),
        ("2 1 -3", "header field d: dim must be >= 1, got -3"),
    ], ids=["K=1", "K=0", "n=-1", "n=0", "d=0", "d=-3"])
    def test_header_out_of_domain_names_the_file_and_field(self, tmp_path, header, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"{header}\n0 0\n0 0\n")
        with open(path) as f, pytest.raises(ValueError) as info:
            read_header(f)
        assert str(info.value) == f"{path}: {message}"
        with pytest.raises(ValueError) as info:
            load_featureset(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("body", ["", "\n", "\n  \n"], ids=["none", "blank", "blanks"])
    def test_header_without_body_raises_one_named_error(self, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 1 2\n{body}")
        with pytest.raises(ValueError) as info:
            load_featureset(path)
        assert str(info.value) == f"{path}: expected 2 x 2 values, got none"

    def test_load_rejects_wrong_row_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 2\n0 0\n")
        with pytest.raises(ValueError):
            load_featureset(path)
