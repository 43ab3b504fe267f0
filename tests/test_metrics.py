import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import POWERS_OF_TWO, naive_alignment, naive_pfc1, naive_pfc2, naive_pfc3
from pfc.core import DegenerateInputError, FeatureSet
from pfc.etf import build_etf, gram_target
from pfc.geodesic import make_nc_featureset
from pfc.metrics import (
    first_within_error,
    alignment,
    measure,
    nearest_class_means,
    pfc1,
    pfc2,
    pfc3,
)


# three well separated classes of two samples each
SEPARATED = FeatureSet(
    np.array([[0.0, 0.1, 5.0, 5.1, -4.0, -4.2], [1.0, 1.1, 3.0, 3.2, 0.5, 0.4]]), 3, 2
)


def random_featureset(rng):
    k = int(rng.integers(2, 6))
    n = int(rng.integers(1, 11))
    d = int(rng.integers(2, 9))
    return FeatureSet(rng.standard_normal((d, k * n)), k, n)


class TestPfc1:
    def test_hand_example(self):
        fs = FeatureSet(np.array([[0.0, 2.0, 4.0, 6.0]]), num_classes=2, per_class=2)
        assert pfc1(fs) == pytest.approx(0.25)

    def test_collapsed_features_give_zero(self):
        frame = build_etf(3, 4, seed=0)
        assert pfc1(make_nc_featureset(frame, per_class=5)) == pytest.approx(0.0, abs=1e-30)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        fs = random_featureset(rng)
        scaled = FeatureSet(3.7 * fs.features, fs.num_classes, fs.per_class)
        assert pfc1(scaled) == pytest.approx(pfc1(fs), rel=1e-12)

    def test_identical_means_raise(self):
        fs = FeatureSet(np.tile([[0.0, 2.0]], (1, 2)), num_classes=2, per_class=2)
        with pytest.raises(DegenerateInputError):
            pfc1(fs)


class TestPfc2:
    def test_exact_etf_means_give_zero(self):
        for k, d, scale in [(2, 2, 1.0), (3, 5, 2.5), (5, 8, 0.3)]:
            frame = build_etf(k, d, seed=k)
            fs = make_nc_featureset(frame, per_class=3, scale=scale)
            assert pfc2(fs) == pytest.approx(0.0, abs=1e-12)

    def test_two_class_metric_is_degenerate_zero(self):
        # with K=2 the centered means are always antipodal, so the
        # normalized Gram equals the target for any nonzero configuration.
        exact = FeatureSet(np.array([[1.0, -1.0], [0.0, 0.0]]), 2, 1)
        assert pfc2(exact) == pytest.approx(0.0, abs=1e-12)
        bent = FeatureSet(np.array([[1.0, 1.0], [0.0, 0.5]]), 2, 1)
        assert pfc2(bent) == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_mean_gives_positive_value(self):
        # the simplex ETF of the identity basis
        means = np.sqrt(1.5) * (np.eye(3) - 1.0 / 3.0)
        means[1, 0] += 0.5
        fs = FeatureSet(means, num_classes=3, per_class=1)
        assert pfc2(fs) > 1e-3

    def test_equal_means_raise(self):
        fs = FeatureSet(np.tile([[1.0, 3.0]], (1, 2)), num_classes=2, per_class=2)
        with pytest.raises(DegenerateInputError):
            pfc2(fs)

    @pytest.mark.parametrize("scale", [1e-170, 1e-80, 1.0, 1e80, 1e180])
    def test_extreme_scales_keep_the_value(self, scale):
        # K = 2 centered means are antipodal, so every scale gives 0; from
        # about 1e77 on the Gram's norm overflows, and below about 1e-77
        # the squares of its entries underflow
        row = scale * np.array([1.0, -1.0, 2.0, 0.0])
        fs = FeatureSet(np.stack([row, 2.0 * row, 3.0 * row]), num_classes=2, per_class=2)
        assert pfc2(fs) == pytest.approx(0.0, abs=1e-15)

    def test_power_of_two_scaling_keeps_bits(self):
        # all three metrics, not only pfc2: an exact shift of the features'
        # exponent is undone before any square is formed
        rng = np.random.default_rng(8)
        for _ in range(20):
            fs = random_featureset(rng)
            expected = measure(fs)
            for factor in POWERS_OF_TWO:
                scaled = FeatureSet(factor * fs.features, fs.num_classes, fs.per_class)
                assert np.array_equal(scaled.features / factor, fs.features)
                assert measure(scaled) == expected
                assert pfc2(scaled) == expected.pfc2

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_decimal_scaling_keeps_all_metrics(self, factor):
        expected = measure(SEPARATED)
        got = measure(FeatureSet(factor * SEPARATED.features, 3, 2))
        assert got.pfc1 == pytest.approx(expected.pfc1, rel=1e-12)
        assert got.pfc2 == pytest.approx(expected.pfc2, rel=1e-12)
        assert got.pfc3 == expected.pfc3 == 1.0

    def test_means_far_below_a_constant_coordinate(self):
        # the features' largest entry is the constant 1, so only the
        # centered means, 2^-560 apart, leave the safe window; their Gram
        # would underflow to zero if it were formed at that scale
        means = 2.0**-560 * np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        features = np.vstack([np.ones((1, 6)), np.repeat(means, 2, axis=1)])
        assert pfc2(FeatureSet(features, 3, 2)) == pytest.approx(0.6146428139109532, rel=1e-12)

    def test_scaling_centered_means_invariance(self):
        rng = np.random.default_rng(5)
        fs = random_featureset(rng)
        scaled = FeatureSet(0.01 * fs.features, fs.num_classes, fs.per_class)
        assert pfc2(scaled) == pytest.approx(pfc2(fs), rel=1e-10)


class TestPfc3:
    def test_collapsed_distinct_means(self):
        frame = build_etf(4, 6, seed=2)
        assert pfc3(make_nc_featureset(frame, per_class=3)) == 1.0

    def test_singleton_classes(self):
        fs = FeatureSet(np.array([[0.0, 1.0]]), num_classes=2, per_class=1)
        assert pfc3(fs) == 1.0

    def test_tie_goes_to_smallest_class(self):
        # means are both 5: every sample ties, so class 0 counts correct.
        fs = FeatureSet(np.array([[0.0, 10.0, 4.0, 6.0]]), num_classes=2, per_class=2)
        assert pfc3(fs) == 0.5
        np.testing.assert_array_equal(nearest_class_means(fs), [0, 0, 0, 0])

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        fs = random_featureset(rng)
        moved = FeatureSet(fs.features + 100.0, fs.num_classes, fs.per_class)
        assert pfc3(moved) == pfc3(fs)


class TestOracles:
    def test_all_metrics_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            fs = random_featureset(rng)
            assert pfc1(fs) == pytest.approx(
                naive_pfc1(fs.features, fs.num_classes, fs.per_class), rel=1e-12
            )
            assert pfc2(fs) == pytest.approx(
                naive_pfc2(fs.features, fs.num_classes, fs.per_class,
                           gram_target(fs.num_classes)),
                rel=1e-12,
            )
            assert pfc3(fs) == pytest.approx(
                naive_pfc3(fs.features, fs.num_classes, fs.per_class), abs=0
            )

    def test_alignment_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            h = rng.standard_normal((3, 4))
            x = rng.standard_normal((3, 4))
            assert alignment(h, x) == pytest.approx(naive_alignment(h, x), rel=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_pfc3_property(self, seed):
        rng = np.random.default_rng(seed)
        fs = random_featureset(rng)
        assert pfc3(fs) == naive_pfc3(fs.features, fs.num_classes, fs.per_class)


class TestAlignment:
    def test_positive_scaling_gives_zero(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 6))
        assert alignment(3.0 * x, x) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_gives_two(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        assert alignment(-x, x) == pytest.approx(2.0, rel=1e-12)

    def test_zero_matrix_raises(self):
        with pytest.raises(DegenerateInputError):
            alignment(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            alignment(np.ones((2, 3)), np.ones((3, 2)))

    def test_power_of_two_scaling_keeps_bits(self):
        rng = np.random.default_rng(5)
        h, x = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        expected = alignment(h, x)
        for factor in (2.0**600, 2.0**-600):
            assert alignment(factor * h, x) == expected
            assert alignment(h, factor * x) == expected
            assert alignment(factor * h, factor * x) == expected

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_decimal_scaling_keeps_the_value(self, factor):
        # the norm of 1e160 h overflows and that of 1e-170 h underflows to 0
        rng = np.random.default_rng(5)
        h, x = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        expected = alignment(h, x)
        assert alignment(factor * h, x) == pytest.approx(expected, rel=1e-12)
        assert alignment(h, factor * x) == pytest.approx(expected, rel=1e-12)


def accuracy_layer(wrong: int) -> FeatureSet:
    """d=1, K=2, n=10 layer with exactly ``wrong`` class-0 samples misassigned.

    Class-0 samples sit at -200j/(10-j) (correct side) except j at +200
    (wrong side), keeping the class-0 mean at 0; class 1 sits at 100.
    """
    j = wrong
    values = [200.0] * j + [-200.0 * j / (10 - j)] * (10 - j) + [100.0] * 10
    return FeatureSet(np.array([values]), num_classes=2, per_class=10)


def effective_depth(stack: tuple[FeatureSet, ...], epsilon: float) -> int | None:
    """Oracle for ``first_within_error``: the first layer of the stack whose
    NCC error rate is at most ``epsilon``, measured layer by layer."""
    for idx, fs in enumerate(stack):
        if 1.0 - pfc3(fs) <= epsilon:
            return idx
    return None


class TestEffectiveDepth:
    def test_example_thresholds(self):
        stack = (accuracy_layer(6), accuracy_layer(2), accuracy_layer(0))
        observed = [pfc3(fs) for fs in stack]
        assert observed == [0.7, 0.9, 1.0]
        assert first_within_error(observed, 0.1) == 1
        assert first_within_error(observed, 0.0) == 2
        # 0.35 keeps the threshold off the 1 - 0.7 rounding boundary.
        assert first_within_error(observed, 0.35) == 0
        for epsilon in (0.1, 0.0, 0.35, 0.05):
            assert first_within_error(observed, epsilon) == effective_depth(stack, epsilon)

    def test_none_when_no_layer_qualifies(self):
        stack = (accuracy_layer(6), accuracy_layer(4))
        observed = [pfc3(fs) for fs in stack]
        assert first_within_error(observed, 0.05) is None
        assert effective_depth(stack, 0.05) is None

    def test_all_collapsed_gives_zero(self):
        frame = build_etf(3, 4, seed=3)
        fs = make_nc_featureset(frame, per_class=2)
        assert first_within_error([pfc3(fs), pfc3(fs)], 0.0) == 0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            first_within_error([1.0], -0.1)


class TestMeasure:
    def test_class_statistics_formed_once(self, monkeypatch):
        # one moments object per set, so one pass over its features
        import pfc.metrics

        calls = []
        original = pfc.metrics._Moments.__init__
        monkeypatch.setattr(
            pfc.metrics._Moments, "__init__",
            lambda moments, *sets: calls.append(sets) or original(moments, *sets),
        )
        rng = np.random.default_rng(23)
        sets = [random_featureset(rng) for _ in range(3)]
        for fs in sets:
            measure(fs)
        assert [[id(fs) for fs in call] for call in calls] == [[id(fs)] for fs in sets]

    def test_structure_far_below_a_constant_coordinate(self):
        # the constant 1 keeps the features in the safe window, while class
        # means 2^-560 apart and offsets of 2^-561 square to subnormals at
        # that scale; the offsets and centered means themselves are shifted
        structure = np.array([[0.0, 2.0, 4.0, 4.0, 0.0, 1.0],
                              [0.0, 1.0, 3.0, 1.0, 4.0, 4.0]])
        def with_structure(scale):
            features = np.vstack([np.ones((1, 6)), scale * structure])
            return FeatureSet(features, num_classes=3, per_class=2)

        expected = measure(with_structure(1.0))
        assert measure(with_structure(2.0**-560)) == expected
        assert expected.pfc3 == 1.0

    @pytest.mark.parametrize("k, n", [(10, 100), (5, 7), (3, 5), (4, 256)])
    def test_one_vector_in_every_column_is_degenerate(self, k, n):
        # a dead ReLU layer: every column is relu(b).  K bit-identical class
        # means center to zero, not to the rounding of their mean, so the
        # metrics are not read from that noise
        for seed in range(10):
            column = np.maximum(np.random.default_rng([seed, k, n]).standard_normal((64, 1)), 0.0)
            fs = FeatureSet(np.repeat(column, k * n, axis=1), k, n)
            with pytest.raises(DegenerateInputError, match="all class means coincide"):
                measure(fs)
            with pytest.raises(DegenerateInputError, match="centered class means are all zero"):
                pfc2(fs)

    def test_agrees_with_individual_metrics(self):
        rng = np.random.default_rng(23)
        fs = random_featureset(rng)
        report = measure(fs)
        assert report.pfc1 == pfc1(fs)
        assert report.pfc2 == pfc2(fs)
        assert report.pfc3 == pfc3(fs)

    def test_translation_invariance_of_all_metrics(self):
        rng = np.random.default_rng(31)
        fs = random_featureset(rng)
        shift = 10.0 * rng.standard_normal((fs.dim, 1))
        moved = FeatureSet(fs.features + shift, fs.num_classes, fs.per_class)
        a, b = measure(fs), measure(moved)
        assert b.pfc1 == pytest.approx(a.pfc1, rel=1e-9)
        assert b.pfc2 == pytest.approx(a.pfc2, rel=1e-8, abs=1e-10)
        assert b.pfc3 == a.pfc3
