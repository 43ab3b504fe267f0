"""Interpolation paths, metric curves and monotonicity verdicts."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import POWERS_OF_TWO, naive_stats, stack_positions
from pfc.core import DegenerateInputError, FeatureSet, class_stats
from pfc.etf import build_etf
from pfc.geodesic import (
    METRIC_KINDS,
    MONOTONE_SLACK,
    InterpolationPath,
    _quadratic_weights,
    endpoint_mean_alignment,
    interpolate,
    make_nc_featureset,
    metric_curve,
    metric_values,
    monotonicity_report,
    perturbed_collapse_path,
    random_to_collapse_path,
    uniform_grid,
)
from pfc.metrics import measure, pfc1, pfc2, pfc3


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


def naive_endpoint_alignment(start: FeatureSet, end: FeatureSet) -> float:
    """sum_k <h_k(0) - h_G(0), h_k(1) - h_G(1)>, one class at a time."""
    (a, a_mean, *_), (b, b_mean, *_) = (
        naive_stats(fs.features, fs.num_classes, fs.per_class) for fs in (start, end))
    return sum(float((a[:, k] - a_mean) @ (b[:, k] - b_mean)) for k in range(start.num_classes))


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
        with pytest.raises(ValueError, match="^num_points must be >= 2, got 1$"):
            uniform_grid(1)
        with pytest.raises(ValueError,
                           match="^parameter 'num_points' must be of type int, got 2.5$"):
            uniform_grid(2.5)

    def test_metric_curve_shape_and_kind_checks(self):
        # a curve is one value per grid point, of a known metric kind
        path = random_path(0)
        for kind in METRIC_KINDS:
            assert metric_curve(path, kind).shape == path.grid.shape
        with pytest.raises(ValueError):
            metric_curve(path, "nc1")

    def test_unknown_metric_kind_names_the_kinds_and_the_value(self):
        message = "metric_kind must be one of ('pfc1', 'pfc2', 'pfc3'), got 'pfc4'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            metric_values(random_path(0), "pfc4", [0.5])


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
            assert curve[-1] == pytest.approx(0.0, abs=1e-12)

    def test_constant_collapsed_path_is_zero_curve(self):
        frame = build_etf(4, 5, seed=7)
        nc = make_nc_featureset(frame, per_class=3)
        path = InterpolationPath(start=nc, end=nc, grid=uniform_grid(5))
        curve = metric_curve(path, "pfc1")
        np.testing.assert_allclose(curve, 0.0, atol=1e-24)
        curve2 = metric_curve(path, "pfc2")
        np.testing.assert_allclose(curve2, 0.0, atol=1e-12)

    def test_values_match_pointwise_metrics(self):
        path = random_path(11, grid_points=7)
        for kind, fn in (("pfc1", pfc1), ("pfc2", pfc2), ("pfc3", pfc3)):
            for t, v in zip(path.grid, metric_curve(path, kind)):
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
                metric_curve(path, kind),
                pointwise_values(path, kind, path.grid),
                rtol=1e-9, atol=1e-12,
            )
        np.testing.assert_array_equal(
            metric_curve(path, "pfc3"),
            pointwise_values(path, "pfc3", path.grid),
        )
        # at the endpoints every metric is finished exactly as the metric
        # of the endpoint finishes it
        for kind, fn in (("pfc1", pfc1), ("pfc2", pfc2), ("pfc3", pfc3)):
            ends = metric_curve(path, kind)[[0, -1]]
            assert list(ends) == [fn(path.start), fn(path.end)], kind

    def test_collapsed_end_is_perfectly_separated(self):
        for seed in range(10):
            path = random_to_collapse_path(seed, 5, 7, 9, grid_points=11)
            assert metric_curve(path, "pfc3")[-1] == 1.0

    def test_one_pass_over_the_endpoints(self, monkeypatch):
        # one moments object of the two ends serves every curve
        import pfc.metrics

        calls = []
        original = pfc.metrics._Moments.__init__
        monkeypatch.setattr(
            pfc.metrics._Moments, "__init__",
            lambda moments, *sets: calls.append(sets) or original(moments, *sets),
        )
        path = random_path(12, grid_points=1001)
        for kind in ("pfc1", "pfc2", "pfc3"):
            metric_curve(path, kind)
        assert [[id(fs) for fs in call] for call in calls] == [[id(path.start), id(path.end)]]

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
        np.testing.assert_array_equal(metric_curve(path, "pfc3"), 1.0)


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


def normal_points(*paths):
    """Grid points at which every nonzero weight x moment product of the
    closed forms is a normal number on each path, the premise of bit-equal
    curves at that point.  A subnormal product rounds at a fixed absolute
    step, so its bits depend on the power of two the window gives the ends;
    t = 4.3e-162, whose t^2 is subnormal, gives one."""
    weights = _quadratic_weights(paths[0].grid)
    keep = np.ones(len(weights), dtype=bool)
    for path in paths:
        m = path._moments
        for moment in (m.within, m.between, m.gram, m.gaps):
            products = np.abs(weights[:, :, None] * moment.reshape(len(moment), -1))
            keep &= ~np.any((products > 0) & (products < np.finfo(float).tiny), axis=(1, 2))
    return keep


def random_stack(seed, layers=4, num_classes=3, per_class=2, dim=4):
    rng = np.random.default_rng(seed)
    return tuple(
        FeatureSet(rng.standard_normal((dim, num_classes * per_class)), num_classes, per_class)
        for _ in range(layers)
    )


class TestScale:
    def _assert_curves_keep_bits(self, path):
        """Curve bits under each exact power-of-two scaling, at the grid
        points where no weight x moment product goes subnormal."""
        expected = {kind: metric_values(path, kind, path.grid) for kind in METRIC_KINDS}
        for factor in POWERS_OF_TWO:
            if not exactly_scaled((path.start, path.end), factor):
                continue
            scaled = scaled_path(path, factor)
            keep = normal_points(path, scaled)
            for kind in METRIC_KINDS:
                got = metric_values(scaled, kind, path.grid)
                assert got[keep].tobytes() == expected[kind][keep].tobytes(), (factor, kind)

    def test_power_of_two_scaling_keeps_curve_bits(self):
        for seed in range(10):
            self._assert_curves_keep_bits(random_path(seed))

    @given(oracle_paths())
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scaling_keeps_curve_bits_on_oracle_paths(self, path):
        self._assert_curves_keep_bits(path)

    def test_subnormal_weight_is_outside_the_premise(self):
        # the start is exactly collapsed, so pfc1 at t is t^2 W / B(t); at
        # t = 4.3e-162 the weight t^2 is subnormal, and pfc1 there reads
        # 4.0e-323 unscaled but 4.4e-323 with both ends scaled by 2^+-300
        start = make_nc_featureset(build_etf(3, 6, seed=[1, 1]), 4, scale=1.3)
        end = FeatureSet(np.random.default_rng(5).standard_normal((6, 12)), 3, 4)
        path = InterpolationPath(start=start, end=end, grid=np.array([0.0, 4.3e-162, 1e-5, 1.0]))
        for factor in POWERS_OF_TWO:
            keep = normal_points(path, scaled_path(path, factor))
            assert keep.tolist() == [True, False, True, True], factor
        self._assert_curves_keep_bits(path)

    def test_structure_far_below_a_constant_coordinate(self):
        # both ends share a constant coordinate 1, so the features stay in
        # the safe window while their class structure sits 2^-560 below it
        rng = np.random.default_rng(4)
        start = rng.standard_normal((3, 12))
        end = np.repeat(rng.standard_normal((3, 3)), 4, axis=1)

        def with_structure(scale):
            def ends(x):
                return FeatureSet(np.vstack([np.ones((1, 12)), scale * x]), 3, 4)
            return InterpolationPath(start=ends(start), end=ends(end), grid=uniform_grid(11))

        path, rescaled = with_structure(2.0**-560), with_structure(1.0)
        for kind in METRIC_KINDS:
            got = metric_values(path, kind, path.grid)
            assert got.tobytes() == metric_values(rescaled, kind, path.grid).tobytes(), kind
        assert metric_values(path, "pfc3", [1.0])[0] == 1.0

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

    @pytest.mark.parametrize("end_scale", [1e80, 1e100])
    def test_pfc2_keeps_endpoint_bits_at_ends_far_apart_in_scale(self, end_scale):
        # windowed with the end, the start's Gram entries are about
        # end_scale^-2, and its norm squared them again: to subnormals at
        # 1e80, to 0 (pfc2 inf) at 1e100
        path = random_to_collapse_path(1, 4, 20, 8, end_scale=end_scale)
        got = metric_values(path, "pfc2", [0.0, 1.0])
        assert got.tolist() == [pfc2(path.start), pfc2(path.end)]

    @pytest.mark.parametrize("kind", METRIC_KINDS)
    @pytest.mark.parametrize("end_scale", [1e155, 1e160])
    def test_subnormal_spread_at_ends_far_apart_in_scale_is_refused(self, end_scale, kind):
        # windowed with the end, the start's between-class sum is subnormal
        # (about 1e-310 at 1e155): its lost bits once gave pfc1 19.8564 and
        # pfc2 0.482914 at t = 0 for the start's 19.8547 and 0.482076; pfc3
        # reads its gap table beside that sum, and is refused with it
        path = random_to_collapse_path(1, 4, 20, 8, end_scale=end_scale)
        with pytest.raises(DegenerateInputError, match=f"^{kind} degenerate at t=0.0: "
                           "centered class means underflow; their sum is subnormal$"):
            metric_values(path, kind, [0.0, 1.0])
        assert metric_values(path, kind, [1.0])[0] == getattr(measure(path.end), kind)

    def test_coinciding_means_at_ends_far_apart_in_scale_are_refused(self):
        # at 1e170 the start's between-class sum, windowed with the end, is 0:
        # its gap table tied every sample to class 0, and pfc3 at t = 0 read
        # 0.25 (1/K) for the start's 0.55
        path = random_to_collapse_path(1, 4, 20, 8, end_scale=1e170)
        for kind in ("pfc1", "pfc3"):
            with pytest.raises(DegenerateInputError,
                               match=f"^{kind} degenerate at t=0.0: all class means coincide; "):
                metric_values(path, kind, [0.0, 1.0])
        assert metric_values(path, "pfc3", [1.0])[0] == measure(path.end).pfc3

    def test_power_of_two_scaling_keeps_position_bits(self):
        for seed in range(20):
            stack = random_stack(seed)
            expected = stack_positions(stack)
            for factor in POWERS_OF_TWO:
                if not exactly_scaled(stack, factor):
                    continue
                scaled = tuple(scaled_set(fs, factor) for fs in stack)
                assert stack_positions(scaled).tobytes() == expected.tobytes(), factor

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_decimal_scaling_keeps_positions(self, factor):
        stack = random_stack(1)
        scaled = tuple(scaled_set(fs, factor) for fs in stack)
        np.testing.assert_allclose(stack_positions(scaled), stack_positions(stack), rtol=1e-12)


class TestEndpointAlignment:
    def test_path_to_itself_is_nonnegative(self):
        fs = random_path(8).start
        path = InterpolationPath(start=fs, end=fs, grid=uniform_grid(3))
        value = endpoint_mean_alignment(path)
        assert value >= 0.0
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
        base = endpoint_mean_alignment(path)
        flipped = endpoint_mean_alignment(
            InterpolationPath(start=path.start, end=flipped_end, grid=path.grid)
        )
        assert flipped == pytest.approx(-base, rel=1e-10)

    def test_matches_double_loop_oracle(self):
        for seed in range(20):
            path = random_path(seed, num_classes=4, per_class=3, dim=7)
            value = endpoint_mean_alignment(path)
            assert value == pytest.approx(
                naive_endpoint_alignment(path.start, path.end), rel=1e-12, abs=1e-12
            )


class TestMonotonicityReport:
    def test_strictly_decreasing_example(self):
        verdict = monotonicity_report(np.array([3.0, 2.0, 1.0, 0.0]))
        assert verdict.kind == "strictly-decreasing"
        assert verdict.first_violation is None

    def test_flat_step_is_nonincreasing(self):
        assert monotonicity_report(np.array([1.0, 1.0, 0.0])).kind == "nonincreasing"

    def test_rise_is_violated_at_first_index(self):
        verdict = monotonicity_report(np.array([0.0, 1.0]))
        assert verdict.kind == "violated"
        assert verdict.first_violation == 0

    def test_slack_is_relative_to_scale(self):
        # a rise of ten times the slack sits inside it on a curve of
        # scale 1e6, and is a violation on a curve of scale 1.
        rise = 10 * MONOTONE_SLACK
        curve = np.array([1e6, 0.5e6, 0.5e6 + rise])
        assert monotonicity_report(curve).kind == "nonincreasing"
        curve = np.array([1.0, 0.5, 0.5 + rise])
        assert monotonicity_report(curve).kind == "violated"

    def test_single_point_curve(self):
        assert monotonicity_report(np.array([2.0])).kind == "nonincreasing"

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            monotonicity_report(np.array([]))


class TestRelativePositions:
    def _stack_with_displacements(self, sums):
        # one feature column per layer step; norms add columnwise.
        layers = [FeatureSet(np.zeros((1, 2)), 2, 1)]
        offset = 0.0
        for s in sums:
            offset += s / 2.0
            layers.append(FeatureSet(np.full((1, 2), offset), 2, 1))
        return tuple(layers)

    def test_equal_steps(self):
        stack = self._stack_with_displacements([1.0, 1.0])
        np.testing.assert_allclose(stack_positions(stack), [0.0, 0.5, 1.0])

    def test_single_block(self):
        stack = self._stack_with_displacements([2.0])
        np.testing.assert_allclose(stack_positions(stack), [0.0, 1.0])

    def test_cumulative_sums_example(self):
        stack = self._stack_with_displacements([1.0, 2.0, 1.0])
        np.testing.assert_allclose(
            stack_positions(stack), [0.0, 0.25, 0.75, 1.0]
        )

    def test_steps_far_below_a_constant_coordinate(self):
        # the layers share a constant coordinate 1; the other one moves by
        # 2^-560 and then 3 * 2^-560, whose squares underflow at that scale
        def with_steps(scale):
            return tuple(
                FeatureSet(np.array([[1.0] * 6, [scale * c] * 6]), 3, 2) for c in (0.0, 1.0, 4.0)
            )

        got = stack_positions(with_steps(2.0**-560))
        assert got.tobytes() == stack_positions(with_steps(1.0)).tobytes()
        assert got.tolist() == [0.0, 0.25, 1.0]

    def test_zero_length_path_rejected(self):
        fs = FeatureSet(np.ones((2, 2)), 2, 1)
        with pytest.raises(DegenerateInputError):
            stack_positions((fs, fs))

    def test_needs_two_layers(self):
        fs = FeatureSet(np.ones((2, 2)), 2, 1)
        with pytest.raises(ValueError):
            stack_positions((fs,))


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
            assert endpoint_mean_alignment(path) >= 0.0

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
                    assert curve[-1] == pytest.approx(0.0, abs=1e-12)

    def test_counterexample_when_alignment_fails(self):
        # reflected start gives a negative alignment sum and a rising
        # variance-ratio curve; the checker's sign predicts the verdict.
        path = random_to_collapse_path(0, 3, 4, 8, grid_points=101)
        reflected = FeatureSet(
            2.0 * path.start.features.mean(axis=1, keepdims=True)
            - path.start.features,
            3,
            4,
        )
        bad = InterpolationPath(start=reflected, end=path.end, grid=path.grid)
        assert endpoint_mean_alignment(bad) < 0.0
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
                    assert monotonicity_report(curve).kind != "violated", (
                        num_classes, per_class, dim,
                    )
                    assert curve[-1] == pytest.approx(0.0, abs=1e-12)
