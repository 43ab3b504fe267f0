import io
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import naive_stats, write_text_layer
from pfc import core
from pfc.core import (
    COUNTS,
    DIM,
    NUM_CLASSES,
    PER_CLASS,
    Domain,
    FeatureSet,
    _to_window,
    check_domain,
    class_stats,
    ge,
    gt,
    load_featureset,
    read_stack_shape,
    save_featureset,
)
from pfc.data import gen_gaussian_mixture
from pfc.etf import build_etf
from pfc.geodesic import perturbed_collapse_path, random_to_collapse_path
from pfc.metrics import measure


def centered_class_means(fs):
    """d x K matrix whose column k is h_k - h_G."""
    stats = class_stats(fs)
    return stats.class_means - stats.global_mean[:, None]


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

    def test_shape_is_its_counts(self):
        fs = FeatureSet(np.zeros((5, 6)), num_classes=3, per_class=2)
        assert fs.shape == (3, 2, 5) and list(COUNTS) == ["num_classes", "per_class", "dim"]

    def test_counts_are_typed(self):
        # K and n are typed as core.NUM_CLASSES and core.PER_CLASS
        x = np.random.default_rng(0).standard_normal((3, 6))
        fs = FeatureSet(x, 2.0, 3)
        assert type(fs.num_classes) is int and measure(fs) == measure(FeatureSet(x, 2, 3))
        with pytest.raises(ValueError,
                           match="^parameter 'per_class' must be of type int, got True$"):
            FeatureSet(x, 6, True)

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


class TestCheckDomain:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, [1.0, np.inf]])
    @pytest.mark.parametrize("domain, sign", [(ge(0), ">="), (gt(0), ">")])
    def test_nonfinite_lies_outside_every_bound(self, value, domain, sign):
        with pytest.raises(ValueError, match=f"^x must be {sign} 0, got "):
            check_domain("x", value, domain)

    def test_finite_values_inside_the_bound_pass(self):
        check_domain("x", [0.0, 1e308], ge(0))
        check_domain("x", 5e-324, gt(0))

    def test_choices_admit_only_their_own_values(self):
        domain = Domain(None, choices=("ce", "mse"))
        check_domain("loss", "ce", domain)
        for value in ("foo", "", "CE"):
            with pytest.raises(ValueError, match="^loss must be one of "
                                                 rf"\('ce', 'mse'\), got {value!r}$"):
                check_domain("loss", value, domain)

    def test_choices_are_checked_before_the_bounds(self):
        with pytest.raises(ValueError, match=r"^n must be one of \(2, 4\), got -1$"):
            check_domain("n", -1, Domain(0, choices=(2, 4)))


class TestCounts:
    """K, n and d are typed and bounded by ``core.COUNTS`` at every entry
    point, and d >= K by one checker, before anything is drawn."""

    def test_one_spec_each(self):
        assert COUNTS == {"num_classes": NUM_CLASSES, "per_class": PER_CLASS, "dim": DIM}
        assert [spec.metadata["domain"] for spec in COUNTS.values()] == [ge(2), ge(1), ge(1)]

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: gen_gaussian_mixture(2.5, 4, 5),
                     "parameter 'num_classes' must be of type int, got 2.5", id="mixture-K-2.5"),
        pytest.param(lambda: gen_gaussian_mixture(3, 4.5, 5),
                     "parameter 'dim' must be of type int, got 4.5", id="mixture-d-4.5"),
        pytest.param(lambda: gen_gaussian_mixture(3, 4, True),
                     "parameter 'per_class' must be of type int, got True", id="mixture-n-True"),
        pytest.param(lambda: gen_gaussian_mixture(3, -1, 5), "dim must be >= 1, got -1",
                     id="mixture-d--1"),
        pytest.param(lambda: gen_gaussian_mixture(3, 0, 5), "dim must be >= 1, got 0",
                     id="mixture-d-0"),
        pytest.param(lambda: build_etf(3, 4.5), "parameter 'dim' must be of type int, got 4.5",
                     id="etf-d-4.5"),
        pytest.param(lambda: build_etf(3, 0), "dim must be >= 1, got 0", id="etf-d-0"),
        pytest.param(lambda: build_etf(3, 2), "dim must be >= num_classes, got dim=2 < K=3",
                     id="etf-d-below-K"),
        pytest.param(lambda: random_to_collapse_path(0, 3, 4, 5.5),
                     "parameter 'dim' must be of type int, got 5.5", id="theorem1-path-d-5.5"),
        pytest.param(lambda: random_to_collapse_path(0, 3, 0, 5), "per_class must be >= 1, got 0",
                     id="theorem1-path-n-0"),
        pytest.param(lambda: random_to_collapse_path(0, 3, 4, 2),
                     "dim must be >= num_classes, got dim=2 < K=3", id="theorem1-path-d-below-K"),
        pytest.param(lambda: perturbed_collapse_path(0, 1, 4, 5),
                     "num_classes must be >= 2, got 1", id="theorem2-path-K-1"),
        pytest.param(lambda: perturbed_collapse_path(0, 3, 4, 2),
                     "dim must be >= num_classes, got dim=2 < K=3", id="theorem2-path-d-below-K"),
        pytest.param(lambda: FeatureSet(np.zeros((0, 6)), 3, 2), "dim must be >= 1, got 0",
                     id="featureset-no-rows"),
    ])
    def test_bad_count_is_named_before_any_draw(self, monkeypatch, call, message):
        def never(*args, **kwargs):
            raise AssertionError("a random stream was made")

        monkeypatch.setattr(np.random, "default_rng", never)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_integral_float_count_is_the_int(self):
        # as in the CLI, where --set dim=4.0 is dim 4
        np.testing.assert_array_equal(gen_gaussian_mixture(3, 4.0, 5).features,
                                      gen_gaussian_mixture(3, 4, 5).features)
        np.testing.assert_array_equal(build_etf(3, 4.0), build_etf(3, 4))
        path = random_to_collapse_path(0, 3, 4, 5.0)
        assert path.start.shape == (3, 4, 5) and type(path.start.dim) is int
        np.testing.assert_array_equal(path.start.features,
                                      random_to_collapse_path(0, 3, 4, 5).start.features)


def npy_bytes(array, **kwargs) -> bytes:
    """``array`` in numpy's .npy format, as ``np.lib.format.write_array``
    writes it with ``kwargs``."""
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, array, **kwargs)
    return buffer.getvalue()


class TestSerialization:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 4)).map(lambda s: (s[0], 2 * s[1])),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=100)
    def test_round_trip_is_exact(self, tmp_path_factory, features):
        fs = FeatureSet(features, num_classes=2, per_class=features.shape[1] // 2)
        path = tmp_path_factory.mktemp("round-trip") / "features.npy"
        save_featureset(path, fs)
        loaded = load_featureset(path)
        assert loaded.shape == fs.shape
        assert loaded.features.tobytes() == fs.features.tobytes()

    def test_file_is_the_npy_array_of_shape_d_k_n(self, tmp_path):
        fs = random_featureset(np.random.default_rng(7), num_classes=3, per_class=4, dim=5)
        # written at the path given, with no suffix appended
        path = tmp_path / "features"
        save_featureset(path, fs)
        assert [p.name for p in tmp_path.iterdir()] == ["features"]
        saved = np.load(path, allow_pickle=False)
        assert (saved.dtype.str, saved.shape, saved.flags.c_contiguous) == ("<f8", (5, 3, 4), True)
        np.testing.assert_array_equal(saved.reshape(5, 12), fs.features)

    @pytest.mark.parametrize("write", [save_featureset, write_text_layer], ids=["npy", "text"])
    def test_edge_values_round_trip_exactly(self, tmp_path, write):
        top = np.finfo(np.float64).max  # 1.8e308
        values = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, top, -top,
                  0.1, -7.25, 1e-300, 1.0, -1.0]
        fs = FeatureSet(np.array(values).reshape(2, 6), num_classes=3, per_class=2)
        path = tmp_path / "features"
        write(path, fs)
        # bit for bit, so -0.0 keeps its sign
        assert load_featureset(path).features.tobytes() == fs.features.tobytes()

    def test_load_adopts_the_array_read(self, tmp_path):
        fs = random_featureset(np.random.default_rng(8), num_classes=2, per_class=3, dim=4)
        path = tmp_path / "features.npy"
        save_featureset(path, fs)
        loaded = load_featureset(path).features
        # a (d, K*n) view of the (d, K, n) array read, which nothing else holds
        read = loaded.base
        assert read.shape == (4, 2, 3) and read.flags.owndata and not read.flags.writeable
        assert np.shares_memory(loaded, read)

    def test_load_adopts_the_parsed_array(self, tmp_path, monkeypatch):
        fs = random_featureset(np.random.default_rng(8), num_classes=2, per_class=3, dim=4)
        path = tmp_path / "features.txt"
        write_text_layer(path, fs)
        parsed = []
        real_loadtxt = np.loadtxt

        def loadtxt(*args, **kwargs):
            parsed.append(real_loadtxt(*args, **kwargs))
            return parsed[-1]

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        assert np.shares_memory(load_featureset(path).features, parsed[0])

    @pytest.mark.parametrize("write", [save_featureset, write_text_layer], ids=["npy", "text"])
    def test_each_read_opens_the_file_once(self, tmp_path, monkeypatch, write):
        fs = random_featureset(np.random.default_rng(9), num_classes=2, per_class=3, dim=4)
        path = tmp_path / "features"
        write(path, fs)
        opened = []

        def counted_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(core, "open", counted_open, raising=False)
        assert load_featureset(path).features.tobytes() == fs.features.tobytes()
        assert opened == [path]
        assert read_stack_shape([path]) == fs.shape
        assert opened == [path, path]

    @pytest.mark.parametrize("paths", [[], ()], ids=["list", "tuple"])
    def test_empty_stack_is_refused(self, paths):
        with pytest.raises(ValueError, match="^empty stack: no layer files$"):
            read_stack_shape(paths)

    @pytest.mark.parametrize("content, cause, in_header", [
        (npy_bytes(np.full((2, 2, 1), None, dtype=object)), "expected dtype <f8, got |O", True),
        (npy_bytes(np.zeros((2, 2, 1), np.float32)), "expected dtype <f8, got <f4", True),
        (npy_bytes(np.zeros((2, 2, 1), ">f8")), "expected dtype <f8, got >f8", True),
        (npy_bytes(np.zeros((2, 2, 1), np.int64)), "expected dtype <f8, got <i8", True),
        (npy_bytes(np.zeros((2, 2))), "expected an array of shape (d, K, n), got shape (2, 2)",
         True),
        (npy_bytes(np.zeros((2, 2, 2, 1))),
         "expected an array of shape (d, K, n), got shape (2, 2, 2, 1)", True),
        (npy_bytes(np.zeros((2, 2, 2), order="F")), "expected C order, got Fortran order", True),
        (npy_bytes(np.zeros((2, 1, 2))), "header field K: num_classes must be >= 2, got 1", True),
        (npy_bytes(np.zeros((2, 2, 1)), version=(3, 0)),
         "expected .npy format version 1.0 or 2.0, got 3.0", True),
        (npy_bytes(np.zeros((2, 2, 1)))[:20], "EOF", True),
        (npy_bytes(np.zeros((2, 2, 1)))[:-8], "expected 32 bytes of values, got 24", False),
        (npy_bytes(np.zeros((2, 2, 1))) + bytes(8), "expected 32 bytes of values, got 40", False),
        (npy_bytes(np.array([[[0.0], [np.nan]], [[0.0], [0.0]]])),
         "features contain NaN or Inf", False),
        (pickle.dumps(np.zeros((2, 2, 1))), "expected a .npy file or text, got", True),
    ], ids=["object", "f4", "big-endian", "int", "ndim-2", "ndim-4", "fortran", "one-class",
            "version-3", "cut-header", "cut-body", "long-body", "nan", "pickle"])
    def test_npy_error_names_the_file_once(self, tmp_path, content, cause, in_header):
        path = tmp_path / "bad.npy"
        path.write_bytes(content)
        calls = [load_featureset] + [lambda p: read_stack_shape([p])] * in_header
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(path)
            message = str(info.value)
            assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
            assert cause in message

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
        with pytest.raises(ValueError) as info:
            read_stack_shape([path])
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
