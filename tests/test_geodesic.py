"""Interpolation paths, metric curves and monotonicity verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfc.core import DegenerateInputError, FeatureSet, LayerStack, class_stats
from pfc.etf import build_etf
from pfc.geodesic import (
    METRIC_KINDS,
    InterpolationPath,
    MetricCurve,
    endpoint_mean_alignment,
    interpolate,
    make_nc_featureset,
    metric_curve,
    metric_values,
    monotonicity_report,
    perturbed_collapse_path,
    random_to_collapse_path,
    relative_positions,
    uniform_grid,
)
from pfc.metrics import pfc1, pfc2, pfc3


def random_path(seed, num_classes=3, per_class=4, dim=6, grid_points=11):
    rng = np.random.default_rng(seed)
    start = FeatureSet(
        rng.standard_normal((dim, num_classes * per_class)), num_classes, per_class
    )
    end = FeatureSet(
        rng.standard_normal((dim, num_classes * per_class)), num_classes, per_class
    )
    return InterpolationPath(start=start, end=end, grid=uniform_grid(grid_points))


def pointwise_values(path, kind, ts):
    """Oracle of the closed forms: one interpolated feature set and one
    metric call per t."""
    fn = {"pfc1": pfc1, "pfc2": pfc2, "pfc3": pfc3}[kind]
    return np.array([fn(interpolate(path, float(t))) for t in ts])


@st.composite
def oracle_paths(draw):
    """Random or exactly collapsed endpoints and a grid of arbitrary interior
    points."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 20))
    d = draw(st.integers(k, 24))
    seed = draw(st.integers(0, 2**32 - 1))
    collapsed = draw(st.tuples(st.booleans(), st.booleans()))
    interior = draw(st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=12, unique=True,
    ))
    rng = np.random.default_rng(seed)

    def endpoint(is_collapsed, stream):
        if is_collapsed:
            frame = build_etf(k, d, seed=[seed, stream])
            return make_nc_featureset(frame, n, scale=rng.uniform(0.5, 3.0),
                                      global_mean=rng.standard_normal(d))
        features = rng.standard_normal((d, k * n)) + rng.standard_normal((d, 1))
        return FeatureSet(features, k, n)

    grid = np.array([0.0, *sorted(interior), 1.0])
    path = InterpolationPath(
        start=endpoint(collapsed[0], 1), end=endpoint(collapsed[1], 2), grid=grid
    )
    return path


def naive_alignment(start: FeatureSet, end: FeatureSet) -> float:
    total = 0.0
    for stats, other in ((class_stats(start), class_stats(end)),):
        for k in range(start.num_classes):
            a = stats.class_means[:, k] - stats.global_mean
            b = other.class_means[:, k] - other.global_mean
            total += float(a @ b)
    return total


class TestPathValidation:
    def test_mismatched_shapes_rejected(self):
        a = FeatureSet(np.zeros((3, 4)), 2, 2)
        b = FeatureSet(np.zeros((3, 6)), 2, 3)
        with pytest.raises(ValueError):
            InterpolationPath(start=a, end=b, grid=uniform_grid(3))

    def test_grid_must_span_unit_interval(self):
        a = FeatureSet(np.zeros((2, 2)), 2, 1)
        for bad in ([0.0, 0.5], [0.1, 1.0], [0.0, 0.6, 0.5, 1.0], [0.0]):
            with pytest.raises(ValueError):
                InterpolationPath(start=a, end=a, grid=np.array(bad))

    def test_grid_is_read_only(self):
        path = random_path(0)
        with pytest.raises(ValueError):
            path.grid[0] = 0.5

    def test_uniform_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            uniform_grid(1)

    def test_metric_curve_shape_and_kind_checks(self):
        with pytest.raises(ValueError):
            MetricCurve(ts=np.zeros(3), values=np.zeros(2), metric_kind="pfc1")
        with pytest.raises(ValueError):
            MetricCurve(ts=np.zeros(2), values=np.zeros(2), metric_kind="nc1")


class TestInterpolate:
    def test_endpoints_returned_exactly(self):
        path = random_path(1)
        assert interpolate(path, 0.0) is path.start
        assert interpolate(path, 1.0) is path.end

    def test_midpoint_column(self):
        start = FeatureSet(np.array([[0.0, 0.0], [0.0, 0.0]]), 2, 1)
        end = FeatureSet(np.array([[2.0, 2.0], [4.0, 4.0]]), 2, 1)
        path = InterpolationPath(start=start, end=end, grid=uniform_grid(3))
        mid = interpolate(path, 0.5)
        np.testing.assert_allclose(mid.features[:, 0], [1.0, 2.0])

    def test_out_of_range_t(self):
        path = random_path(2)
        for t in (-0.1, 1.1):
            with pytest.raises(ValueError):
                interpolate(path, t)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_affine_in_t(self, t, seed):
        path = random_path(seed)
        expected = (1.0 - t) * path.start.features + t * path.end.features
        np.testing.assert_allclose(interpolate(path, t).features, expected)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_swapping_endpoints_reverses_t(self, t, seed):
        path = random_path(seed)
        swapped = InterpolationPath(start=path.end, end=path.start, grid=path.grid)
        np.testing.assert_allclose(
            interpolate(path, t).features,
            interpolate(swapped, 1.0 - t).features,
            atol=1e-12,
        )


class TestMetricCurves:
    def test_collapsed_end_reaches_zero(self):
        path = random_to_collapse_path(3, num_classes=3, per_class=4, dim=8,
                                       grid_points=21)
        for kind in ("pfc1", "pfc2"):
            curve = metric_curve(path, kind)
            assert curve.values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_constant_collapsed_path_is_zero_curve(self):
        frame = build_etf(4, 5, seed=7)
        nc = make_nc_featureset(frame, per_class=3)
        path = InterpolationPath(start=nc, end=nc, grid=uniform_grid(5))
        curve = metric_curve(path, "pfc1")
        np.testing.assert_allclose(curve.values, 0.0, atol=1e-24)
        curve2 = metric_curve(path, "pfc2")
        np.testing.assert_allclose(curve2.values, 0.0, atol=1e-12)

    def test_values_match_pointwise_metrics(self):
        path = random_path(11, grid_points=7)
        for kind, fn in (("pfc1", pfc1), ("pfc2", pfc2), ("pfc3", pfc3)):
            curve = metric_curve(path, kind)
            for t, v in zip(curve.ts, curve.values):
                assert v == pytest.approx(fn(interpolate(path, float(t))))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            metric_curve(random_path(4), "nc1")

    def test_degenerate_point_error_names_t(self):
        # exactly opposite endpoints cancel at t = 0.5, killing both
        # variance traces there.
        rng = np.random.default_rng(0)
        features = rng.standard_normal((4, 6))
        start = FeatureSet(features, 3, 2)
        end = FeatureSet(-features, 3, 2)
        path = InterpolationPath(start=start, end=end, grid=uniform_grid(5))
        with pytest.raises(DegenerateInputError, match="t=0.5"):
            metric_curve(path, "pfc1")


class TestClosedForms:
    @given(oracle_paths())
    @settings(max_examples=150, deadline=None)
    def test_match_pointwise_oracle(self, path):
        for kind in ("pfc1", "pfc2"):
            np.testing.assert_allclose(
                metric_curve(path, kind).values,
                pointwise_values(path, kind, path.grid),
                rtol=1e-9, atol=1e-12,
            )
        np.testing.assert_array_equal(
            metric_curve(path, "pfc3").values,
            pointwise_values(path, "pfc3", path.grid),
        )
        # at the endpoints every metric is finished exactly as the metric
        # of the endpoint finishes it
        for kind, fn in (("pfc1", pfc1), ("pfc2", pfc2), ("pfc3", pfc3)):
            ends = metric_curve(path, kind).values[[0, -1]]
            assert list(ends) == [fn(path.start), fn(path.end)], kind

    def test_collapsed_end_is_perfectly_separated(self):
        for seed in range(10):
            path = random_to_collapse_path(seed, 5, 7, 9, grid_points=11)
            assert metric_curve(path, "pfc3").values[-1] == 1.0

    def test_one_pass_over_the_endpoints(self, monkeypatch):
        import pfc.metrics

        calls = []
        original = pfc.metrics.class_stats
        monkeypatch.setattr(
            pfc.metrics, "class_stats", lambda fs: calls.append(fs) or original(fs)
        )
        path = random_path(12, grid_points=1001)
        for kind in ("pfc1", "pfc2", "pfc3"):
            metric_curve(path, kind)
        assert [id(fs) for fs in calls] == [id(path.start), id(path.end)]

    def test_values_at_any_points(self):
        path = random_path(13, grid_points=5)
        ts = np.array([0.7, 0.0, 0.3, 0.3, 1.0])
        for kind in ("pfc1", "pfc2", "pfc3"):
            np.testing.assert_allclose(
                metric_values(path, kind, ts),
                pointwise_values(path, kind, ts),
                rtol=1e-12,
            )

    def test_points_validated(self):
        path = random_path(14)
        for bad in ([-0.1, 0.5], [0.5, 1.5], [np.nan]):
            with pytest.raises(ValueError, match="t must lie in"):
                metric_values(path, "pfc1", bad)
        with pytest.raises(ValueError):
            metric_values(path, "pfc1", np.zeros((2, 2)))

    def test_degenerate_error_names_first_bad_point(self):
        features = np.random.default_rng(1).standard_normal((4, 6))
        path = InterpolationPath(
            start=FeatureSet(features, 3, 2), end=FeatureSet(-features, 3, 2),
            grid=uniform_grid(3),
        )
        with pytest.raises(DegenerateInputError, match="pfc2 degenerate at t=0.5"):
            metric_values(path, "pfc2", [0.25, 0.5, 0.5])

    def test_pfc3_ties_go_to_smallest_class(self):
        # the class-0 sample at 1.5 is equidistant from the means 0 and 3
        fs = FeatureSet(np.array([[-1.5, 1.5, 2.0, 4.0]]), 2, 2)
        path = InterpolationPath(start=fs, end=fs, grid=uniform_grid(5))
        assert pfc3(fs) == 1.0
        np.testing.assert_array_equal(metric_curve(path, "pfc3").values, 1.0)


# exact shifts of the exponent, from inside the safe window to the edges
# of the float64 range
POWERS_OF_TWO = [2.0**e for e in (300, -300, 600, -600, 1000, -1000)]


def scaled_set(fs, factor):
    return FeatureSet(factor * fs.features, fs.num_classes, fs.per_class)


def scaled_path(path, factor):
    return InterpolationPath(
        start=scaled_set(path.start, factor), end=scaled_set(path.end, factor),
        grid=path.grid,
    )


def exactly_scaled(sets, factor):
    """Whether every entry survives scaling by ``factor`` exactly (no
    subnormal result), the premise of bit-equal metrics."""
    return all(np.array_equal(factor * fs.features / factor, fs.features) for fs in sets)


def random_stack(seed, layers=4, num_classes=3, per_class=2, dim=4):
    rng = np.random.default_rng(seed)
    return LayerStack(layers=tuple(
        FeatureSet(rng.standard_normal((dim, num_classes * per_class)), num_classes, per_class)
        for _ in range(layers)
    ), epoch=0)


class TestScale:
    def _assert_curves_keep_bits(self, path):
        expected = {kind: metric_values(path, kind, path.grid) for kind in METRIC_KINDS}
        for factor in POWERS_OF_TWO:
            if not exactly_scaled((path.start, path.end), factor):
                continue
            scaled = scaled_path(path, factor)
            for kind in METRIC_KINDS:
                got = metric_values(scaled, kind, path.grid)
                assert got.tobytes() == expected[kind].tobytes(), (factor, kind)

    def test_power_of_two_scaling_keeps_curve_bits(self):
        for seed in range(10):
            self._assert_curves_keep_bits(random_path(seed))

    @given(oracle_paths())
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scaling_keeps_curve_bits_on_oracle_paths(self, path):
        self._assert_curves_keep_bits(path)

    @pytest.mark.parametrize("factor", [1e80, 1e160, 1e-160, 1e-300])
    def test_decimal_scaling_keeps_curves(self, factor):
        # K = 3, n = 2, d = 4: at 1e80 the stacked Gram's norm overflows,
        # at 1e160 the squared entries do
        path = random_path(0, num_classes=3, per_class=2, dim=4, grid_points=5)
        scaled = scaled_path(path, factor)
        for kind in METRIC_KINDS:
            np.testing.assert_allclose(
                metric_values(scaled, kind, path.grid),
                metric_values(path, kind, path.grid), rtol=1e-12,
            )

    def test_power_of_two_scaling_keeps_position_bits(self):
        for seed in range(20):
            stack = random_stack(seed)
            expected = relative_positions(stack)
            for factor in POWERS_OF_TWO:
                if not exactly_scaled(stack.layers, factor):
                    continue
                scaled = LayerStack(
                    layers=tuple(scaled_set(fs, factor) for fs in stack.layers), epoch=0
                )
                assert relative_positions(scaled).tobytes() == expected.tobytes(), factor

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_decimal_scaling_keeps_positions(self, factor):
        stack = random_stack(1)
        scaled = LayerStack(
            layers=tuple(scaled_set(fs, factor) for fs in stack.layers), epoch=0
        )
        np.testing.assert_allclose(
            relative_positions(scaled), relative_positions(stack), rtol=1e-12
        )


class TestEndpointAlignment:
    def test_path_to_itself_is_nonnegative(self):
        fs = random_path(8).start
        path = InterpolationPath(start=fs, end=fs, grid=uniform_grid(3))
        satisfied, value = endpoint_mean_alignment(path)
        assert satisfied
        stats = class_stats(fs)
        centered = stats.class_means - stats.global_mean[:, None]
        assert value == pytest.approx(float(np.sum(centered**2)))

    def test_opposite_means_flip_sign(self):
        path = random_path(9)
        flipped_end = FeatureSet(
            2.0 * path.end.features.mean(axis=1, keepdims=True) - path.end.features,
            path.end.num_classes,
            path.end.per_class,
        )
        base = endpoint_mean_alignment(path)[1]
        flipped = endpoint_mean_alignment(
            InterpolationPath(start=path.start, end=flipped_end, grid=path.grid)
        )[1]
        assert flipped == pytest.approx(-base, rel=1e-10)

    def test_matches_double_loop_oracle(self):
        for seed in range(20):
            path = random_path(seed, num_classes=4, per_class=3, dim=7)
            _, value = endpoint_mean_alignment(path)
            assert value == pytest.approx(
                naive_alignment(path.start, path.end), rel=1e-12, abs=1e-12
            )


class TestMonotonicityReport:
    def test_strictly_decreasing_example(self):
        curve = MetricCurve(np.linspace(0, 1, 4), [3.0, 2.0, 1.0, 0.0], "pfc1")
        verdict = monotonicity_report(curve, slack=1e-12)
        assert verdict.kind == "strictly-decreasing"
        assert verdict.first_violation is None
        assert bool(verdict)

    def test_flat_step_is_nonincreasing(self):
        curve = MetricCurve(np.linspace(0, 1, 3), [1.0, 1.0, 0.0], "pfc1")
        assert monotonicity_report(curve).kind == "nonincreasing"

    def test_rise_is_violated_at_first_index(self):
        curve = MetricCurve(np.linspace(0, 1, 2), [0.0, 1.0], "pfc1")
        verdict = monotonicity_report(curve)
        assert verdict.kind == "violated"
        assert verdict.first_violation == 0
        assert not bool(verdict)

    def test_slack_is_relative_to_scale(self):
        # a 1e-9 rise on a curve of scale 1e6 sits inside slack 1e-10 * 1e6.
        curve = MetricCurve(
            np.linspace(0, 1, 3), [1e6, 0.5e6, 0.5e6 + 1e-9], "pfc1"
        )
        assert monotonicity_report(curve, slack=1e-10).kind == "nonincreasing"
        assert monotonicity_report(curve, slack=1e-18).kind == "violated"

    def test_single_point_curve(self):
        curve = MetricCurve(np.array([0.0]), np.array([2.0]), "pfc1")
        assert monotonicity_report(curve).kind == "nonincreasing"

    def test_empty_curve_rejected(self):
        curve = MetricCurve(np.array([]), np.array([]), "pfc1")
        with pytest.raises(ValueError):
            monotonicity_report(curve)


class TestRelativePositions:
    def _stack_with_displacements(self, sums):
        # one feature column per layer step; norms add columnwise.
        layers = [FeatureSet(np.zeros((1, 2)), 2, 1)]
        offset = 0.0
        for s in sums:
            offset += s / 2.0
            layers.append(FeatureSet(np.full((1, 2), offset), 2, 1))
        return LayerStack(layers=tuple(layers), epoch=0)

    def test_equal_steps(self):
        stack = self._stack_with_displacements([1.0, 1.0])
        np.testing.assert_allclose(relative_positions(stack), [0.0, 0.5, 1.0])

    def test_single_block(self):
        stack = self._stack_with_displacements([2.0])
        np.testing.assert_allclose(relative_positions(stack), [0.0, 1.0])

    def test_cumulative_sums_example(self):
        stack = self._stack_with_displacements([1.0, 2.0, 1.0])
        np.testing.assert_allclose(
            relative_positions(stack), [0.0, 0.25, 0.75, 1.0]
        )

    def test_zero_length_path_rejected(self):
        fs = FeatureSet(np.ones((2, 2)), 2, 1)
        stack = LayerStack(layers=(fs, fs), epoch=0)
        with pytest.raises(DegenerateInputError):
            relative_positions(stack)

    def test_needs_two_layers(self):
        fs = FeatureSet(np.ones((2, 2)), 2, 1)
        with pytest.raises(ValueError):
            relative_positions(LayerStack(layers=(fs,), epoch=0))


class TestCollapsedFixture:
    def test_exactly_collapsed_metrics(self):
        frame = build_etf(4, 6, seed=13)
        fs = make_nc_featureset(frame, per_class=5, scale=2.0,
                                global_mean=np.arange(6.0))
        assert pfc1(fs) == pytest.approx(0.0, abs=1e-30)
        assert pfc2(fs) == pytest.approx(0.0, abs=1e-12)
        assert pfc3(fs) == 1.0

    def test_centered_means_proportional_to_frame(self):
        frame = build_etf(3, 5, seed=21)
        fs = make_nc_featureset(frame, per_class=2, scale=1.5,
                                global_mean=np.ones(5))
        stats = class_stats(fs)
        centered = stats.class_means - stats.global_mean[:, None]
        np.testing.assert_allclose(centered, 1.5 * frame, atol=1e-12)


class TestSeededPaths:
    def test_alignment_holds_by_construction(self):
        for seed in range(30):
            path = random_to_collapse_path(seed, 3, 4, 8, grid_points=3)
            satisfied, _ = endpoint_mean_alignment(path)
            assert satisfied

    def test_deterministic_and_seed_sensitive(self):
        a = random_to_collapse_path(5, 3, 4, 8, grid_points=3)
        b = random_to_collapse_path(5, 3, 4, 8, grid_points=3)
        c = random_to_collapse_path(6, 3, 4, 8, grid_points=3)
        assert np.array_equal(a.start.features, b.start.features)
        assert np.array_equal(a.end.features, b.end.features)
        assert not np.array_equal(a.start.features, c.start.features)

    def test_int_seed_equals_singleton_sequence(self):
        a = random_to_collapse_path(5, 3, 4, 8, grid_points=3)
        b = random_to_collapse_path([5], 3, 4, 8, grid_points=3)
        assert np.array_equal(a.start.features, b.start.features)

    def test_perturbed_start_transport_cost(self):
        for seed in range(10):
            path = perturbed_collapse_path(seed, 4, 3, 9, grid_points=3,
                                           end_scale=2.0, eps_rel=0.01)
            s = class_stats(path.start)
            e = class_stats(path.end)
            gap = (s.class_means - s.global_mean[:, None]) - (
                e.class_means - e.global_mean[:, None]
            )
            expected = 0.01 * float(
                np.linalg.norm(e.class_means - e.global_mean[:, None])
            )
            assert float(np.linalg.norm(gap)) == pytest.approx(expected, rel=1e-10)


class TestVarianceRatioDecrease:
    def test_strict_decrease_to_zero_across_shapes(self):
        for num_classes in (3, 5):
            for per_class in (4, 20):
                for dim in (8, 20):
                    path = random_to_collapse_path(
                        [num_classes, per_class, dim], num_classes, per_class,
                        dim, grid_points=1001,
                    )
                    curve = metric_curve(path, "pfc1")
                    verdict = monotonicity_report(curve)
                    assert verdict.kind == "strictly-decreasing", (
                        num_classes, per_class, dim, verdict,
                    )
                    assert curve.values[-1] == pytest.approx(0.0, abs=1e-12)

    def test_counterexample_when_alignment_fails(self):
        # reflected start gives a negative alignment sum and a rising
        # variance-ratio curve; the checker's sign predicts the verdict.
        path = random_to_collapse_path(
            0, 3, 4, 8, grid_points=101, ensure_alignment=True
        )
        reflected = FeatureSet(
            2.0 * path.start.features.mean(axis=1, keepdims=True)
            - path.start.features,
            3,
            4,
        )
        bad = InterpolationPath(start=reflected, end=path.end, grid=path.grid)
        satisfied, value = endpoint_mean_alignment(bad)
        assert not satisfied and value < 0
        assert monotonicity_report(metric_curve(bad, "pfc1")).kind == "violated"


class TestEtfDistanceDecrease:
    def test_nonincreasing_to_zero_across_shapes(self):
        for num_classes in (3, 5):
            for per_class in (4, 20):
                for dim in (8, 20):
                    path = perturbed_collapse_path(
                        [num_classes, per_class, dim], num_classes, per_class,
                        dim, grid_points=1001,
                    )
                    curve = metric_curve(path, "pfc2")
                    assert bool(monotonicity_report(curve)), (
                        num_classes, per_class, dim,
                    )
                    assert curve.values[-1] == pytest.approx(0.0, abs=1e-12)
