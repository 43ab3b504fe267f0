"""Straight-line interpolation between feature configurations.

Under the geodesic-curve view of a well-trained residual network, forward
propagation moves every feature along the segment from its input
representation to its collapsed endpoint.  This module interpolates feature
sets along that segment, evaluates the collapse metrics over a t-grid,
classifies the resulting curves as monotone or not, and maps the layers of
a recorded stack to relative positions along the cumulative displacement.

Curves are evaluated in closed form.  On h(t) = (1 - t) h0 + t h1 the class
means are affine in t, so every squared norm the metrics need is a
quadratic (1 - t)^2 a + 2t(1 - t) b + t^2 c whose coefficients are inner
products of the two endpoints: the within-class trace (pfc1's numerator),
the K x K centered class-mean Gram (pfc1's denominator and pfc2) and the
K x N sample-to-class-mean squared distances (pfc3).  These coefficients
are the moments of the path's two endpoints: ``InterpolationPath`` caches
one ``metrics._Moments`` of them, and a curve evaluates it at the grid's
quadratic weights through the evaluator that ``metrics`` reads one feature
set with, so at t = 0 and t = 1 a curve reads the bits of the endpoints'
metrics.  The coefficients cost O(K n d) once per path; each grid point
then costs O(K^2) for pfc1/pfc2 and O(K N) for pfc3, and no intermediate
feature set is built.  Scale rule (``core``): both endpoints, then their
class offsets and centered means, and each pair of consecutive layers of a
stack, then its displacement, are shifted into the safe window by exact
powers of two, which keeps every bit.

``endpoint_mean_alignment`` computes the inner-product condition
sum_k <h_k(0) - h_G(0), h_k(1) - h_G(1)> whose nonnegativity guarantees
that the variance-ratio curve decreases monotonically to zero when the
endpoint is exactly collapsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (DegenerateInputError, Domain, FeatureSet, _window_exponent, ge, gt, param,
                   typed_counts, typed_param)
from .etf import build_etf
from .metrics import METRIC_KINDS, _Moments

MONOTONE_SLACK = 1e-10  # relative flat-step size of monotonicity_report
# the path builders' knobs, each with its default and domain
PATH = {"grid_points": param(1001, ge(2)), "end_scale": param(1.0, gt(0)),
        "eps_rel": param(0.01, ge(0))}
_METRIC_KIND = param(METRIC_KINDS[0], Domain(None, choices=METRIC_KINDS))  # metric_values' kind


@dataclass(frozen=True)
class InterpolationPath:
    """A start/end pair of feature sets plus the t-grid to evaluate on.

    ``end`` is typically an exactly collapsed configuration; ``grid`` must
    be strictly increasing from 0 to 1.
    """

    start: FeatureSet
    end: FeatureSet
    grid: np.ndarray

    def __post_init__(self):
        if self.start.shape != self.end.shape:
            raise ValueError("start and end must share K, n and d")
        grid = np.asarray(self.grid, dtype=np.float64).copy()
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must be a 1-d array with at least two points")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise ValueError("grid must start at 0 and end at 1")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        grid.setflags(write=False)
        object.__setattr__(self, "grid", grid)

    @cached_property
    def _moments(self) -> _Moments:
        """Moments of the two endpoints, shifted into the safe window together."""
        return _Moments(self.start, self.end)


@dataclass(frozen=True)
class MonotonicityVerdict:
    """Outcome of a monotone-decrease check on a sampled curve.

    ``kind`` is 'strictly-decreasing', 'nonincreasing' or 'violated';
    ``first_violation`` is the first index i with values[i+1] - values[i]
    above the slack, or None.
    """

    kind: str
    first_violation: int | None = None


def uniform_grid(num_points: int = PATH["grid_points"].default) -> np.ndarray:
    """``num_points``, typed as ``PATH["grid_points"]``, equally spaced on [0, 1]."""
    num_points = typed_param("num_points", num_points, PATH["grid_points"])
    return np.linspace(0.0, 1.0, num_points)


def interpolate(path: InterpolationPath, t: float) -> FeatureSet:
    """Feature set at parameter t: columnwise (1 - t) * start + t * end."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if t == 0.0:
        return path.start
    if t == 1.0:
        return path.end
    return FeatureSet(
        features=(1.0 - t) * path.start.features + t * path.end.features,
        num_classes=path.start.num_classes,
        per_class=path.start.per_class,
    )


def _quadratic_weights(ts: np.ndarray) -> np.ndarray:
    """Rows (1 - t)^2, 2t(1 - t), t^2 for each t: shape (len(ts), 3)."""
    s = 1.0 - ts
    return np.stack([s * s, 2.0 * ts * s, ts * ts], axis=1)


def metric_values(path: InterpolationPath, kind: str, ts) -> np.ndarray:
    """One collapse metric at the points ``ts`` (any values in [0, 1]) of a path.

    Evaluates the closed forms of the module docstring; the values agree
    with the metric of :func:`interpolate` at each t up to rounding, and
    equal it at t = 0 and t = 1.

    Raises:
        DegenerateInputError: if some t hits a zero denominator; the
            message names the first such t.
    """
    typed_param("metric_kind", kind, _METRIC_KIND)
    ts = np.asarray(ts, dtype=np.float64)
    if ts.ndim != 1:
        raise ValueError("ts must be a 1-d array")
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if np.any(outside):
        raise ValueError(f"t must lie in [0, 1], got {ts[outside][0]}")
    return path._moments.values(kind, _quadratic_weights(ts), ts)


def metric_curve(path: InterpolationPath, kind: str) -> np.ndarray:
    """One collapse metric's values at the grid points of a path.

    Raises:
        DegenerateInputError: if a grid point hits a zero denominator; the
            message names the offending t.
    """
    return metric_values(path, kind, path.grid)


def endpoint_mean_alignment(path: InterpolationPath) -> float:
    """Inner product of centered start and end class means, summed over
    classes, for the endpoints as shifted into the safe window.

    Nonnegativity of this sum is the condition under which the
    variance-ratio curve of the path decreases monotonically when the
    endpoint is exactly collapsed.
    """
    return float(path._moments.between[1])


def monotonicity_report(values: np.ndarray) -> MonotonicityVerdict:
    """Classify a sampled curve's values as strictly decreasing,
    nonincreasing or violated.

    The slack is relative: a step up counts as a violation only when
    values[i+1] - values[i] > MONOTONE_SLACK * max(|values|), and a step
    counts as a strict decrease only when it falls below the negative.  A
    curve with no violations but some near-flat step is reported
    nonincreasing; so is a single-point curve.
    """
    if values.size == 0:
        raise ValueError("empty curve")
    if values.size == 1:
        return MonotonicityVerdict(kind="nonincreasing")
    scale = float(np.max(np.abs(values)))
    tol = MONOTONE_SLACK * scale
    diffs = np.diff(values)
    above = np.nonzero(diffs > tol)[0]
    if above.size:
        return MonotonicityVerdict(kind="violated", first_violation=int(above[0]))
    if np.all(diffs < -tol):
        return MonotonicityVerdict(kind="strictly-decreasing")
    return MonotonicityVerdict(kind="nonincreasing")


def step_length(a: FeatureSet, b: FeatureSet) -> tuple[float, int]:
    """The total columnwise displacement norm from layer ``a`` to layer
    ``b``, as a pair (value, exponent): the length is value * 2**exponent.

    The pair is shifted into the safe window, and its displacement by one
    more power of two, so that the displacement is squared in the window;
    the exponent carries both shifts, so that no length overflows or
    underflows before :func:`positions_from_steps` scales them together.
    """
    a, b = a.features, b.features
    exponent = _window_exponent(a, b)
    if exponent:
        a, b = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
    step = b - a
    shift = _window_exponent(step)
    if shift:
        np.ldexp(step, -shift, out=step)
    return float(np.sum(np.linalg.norm(step, axis=0))), exponent + shift


def positions_from_steps(lengths: list[tuple[float, int]]) -> np.ndarray:
    """Position of each layer in [0, 1] along the cumulative displacement,
    from ``lengths``, the :func:`step_length` of each consecutive pair of
    layers in order: layer l sits at the sum of the first l lengths over
    their total, so layer 0 maps to 0 and the last layer to 1.

    The lengths are put on one scale, the largest nonzero one's exponent,
    so that the ratios keep their bits whatever power of two scales the
    layers.

    Raises:
        DegenerateInputError: if the total path length is zero.
    """
    if not lengths:
        raise ValueError("need at least two layers for relative positions")
    top = max((exponent for value, exponent in lengths if value), default=0)
    steps = [float(np.ldexp(value, exponent - top)) for value, exponent in lengths]
    total = sum(steps)
    if total == 0.0:
        raise DegenerateInputError("zero total path length; positions undefined")
    return np.concatenate([[0.0], np.cumsum(steps) / total])


def make_nc_featureset(
    frame: np.ndarray,
    per_class: int,
    scale: float = 1.0,
    global_mean: np.ndarray | None = None,
) -> FeatureSet:
    """Exactly collapsed features: every sample at its class mean, centered
    means proportional to the columns of the d x K ETF ``frame``, optionally
    translated."""
    means = scale * frame
    if global_mean is not None:
        means = means + np.asarray(global_mean, dtype=np.float64)[:, None]
    return FeatureSet(
        features=np.repeat(means, per_class, axis=1),
        num_classes=frame.shape[1],
        per_class=per_class,
    )


def _seed_stream(seed, stream: int) -> list[int]:
    """Entropy list combining an int or sequence seed with a stream tag."""
    parts = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    return [*(int(p) for p in parts), stream]


def random_to_collapse_path(
    seed,
    num_classes: int,
    per_class: int,
    dim: int,
    grid_points: int = PATH["grid_points"].default,
    end_scale: float = PATH["end_scale"].default,
) -> InterpolationPath:
    """Seeded random start paired with an exactly collapsed endpoint.

    The start is reflected through its global mean whenever the
    endpoint-alignment sum comes out negative, so the monotone-decrease
    condition holds by construction.

    Raises:
        ValueError: for a count, ``grid_points`` or ``end_scale`` not of its
            ``core.COUNTS`` or ``PATH`` type or outside its domain, or if
            dim < num_classes; each before the first draw.
    """
    num_classes, per_class, dim = typed_counts(num_classes, per_class, dim)
    grid_points = typed_param("grid_points", grid_points, PATH["grid_points"])
    end_scale = typed_param("end_scale", end_scale, PATH["end_scale"])
    frame = build_etf(num_classes, dim, seed=_seed_stream(seed, 303))  # first: checks d >= K
    rng = np.random.default_rng(_seed_stream(seed, 101))
    start_features = rng.standard_normal((dim, num_classes * per_class))
    start_features += rng.standard_normal((dim, 1))  # random global offset
    start = FeatureSet(start_features, num_classes, per_class)
    end = make_nc_featureset(
        frame, per_class, scale=end_scale, global_mean=rng.standard_normal(dim)
    )

    path = InterpolationPath(start=start, end=end, grid=uniform_grid(grid_points))
    if endpoint_mean_alignment(path) < 0.0:
        reflected = 2.0 * start.features.mean(axis=1, keepdims=True) - start.features
        path = InterpolationPath(
            start=FeatureSet(reflected, num_classes, per_class),
            end=end,
            grid=path.grid,
        )
    return path


def perturbed_collapse_path(
    seed,
    num_classes: int,
    per_class: int,
    dim: int,
    grid_points: int = PATH["grid_points"].default,
    end_scale: float = PATH["end_scale"].default,
    eps_rel: float = PATH["eps_rel"].default,
) -> InterpolationPath:
    """Path whose start class means are the collapsed end means plus a small
    zero-sum perturbation of Frobenius norm eps_rel * ||centered end means||.

    The transport cost between the centered-mean matrices is then exactly
    that Frobenius norm, which keeps the ETF-distance curve in its monotone
    regime.

    Raises:
        ValueError: for a count, ``grid_points``, ``end_scale`` or ``eps_rel``
            not of its ``core.COUNTS`` or ``PATH`` type or outside its domain,
            or if dim < num_classes; each before the first draw.
    """
    num_classes, per_class, dim = typed_counts(num_classes, per_class, dim)
    grid_points = typed_param("grid_points", grid_points, PATH["grid_points"])
    end_scale = typed_param("end_scale", end_scale, PATH["end_scale"])
    eps_rel = typed_param("eps_rel", eps_rel, PATH["eps_rel"])
    frame = build_etf(num_classes, dim, seed=_seed_stream(seed, 303))  # first: checks d >= K
    rng = np.random.default_rng(_seed_stream(seed, 202))
    global_mean = rng.standard_normal(dim)
    end = make_nc_featureset(frame, per_class, scale=end_scale, global_mean=global_mean)

    delta = rng.standard_normal((dim, num_classes))
    delta -= delta.mean(axis=1, keepdims=True)  # keep columns zero-sum
    delta /= np.linalg.norm(delta)
    eps = eps_rel * float(np.linalg.norm(end_scale * frame))
    start = make_nc_featureset(end_scale * frame + eps * delta, per_class,
                               global_mean=global_mean)
    return InterpolationPath(start=start, end=end, grid=uniform_grid(grid_points))
