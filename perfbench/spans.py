"""Outside-in tracer for the pfc layers.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
wrappers that record one span each (name, start, end, parent span), and
``FeatureSet.__post_init__`` with one that records ``core.featureset_new``.
A function is rebound in every ``pfc`` module namespace that holds it, so
calls through ``from .geodesic import metric_curve`` are traced too.  Spans
stay in memory; ``Tracer.summary`` reduces them once, at the end of a run,
to per-function calls and self time, per-layer self time and the counts
below.

Counts labelled ``computed`` are derived from array shapes and ignore cache
misses: ``surrogate.solve.flops_computed`` counts the three matrix products
of each epoch (6 K d N), ``resnet.flops_computed`` the weight products of
each forward (2 rows cols per column) and backward pass (weight and input
gradients), and ``metrics.nearest_class_means.bytes_computed`` one read of
the feature matrix per class plus the K x N distance table.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

def _file_bytes(key):
    def count(counts, result, args):
        counts[key] += os.path.getsize(args["path"])
    return count


def _curve_points(counts, result, args):
    counts["geodesic.metric_curve.points"] += len(args["path"].grid)


def _solve_work(counts, result, args):
    p = args["p"]
    n = p.num_classes * p.per_class
    counts["surrogate.solve.epochs"] += result.epochs_run
    counts["surrogate.solve.flops_computed"] += (
        result.epochs_run * 6 * p.num_classes * p.dim * n
    )


def _weight_sizes(params):
    return [v.size for name, v in params.items() if name.startswith("w_")]


def _forward_flops(counts, result, args):
    counts["resnet.flops_computed"] += (
        2 * sum(_weight_sizes(args["params"])) * args["x"].shape[1]
    )


def _backward_flops(counts, result, args):
    sizes = _weight_sizes(args["params"])
    forward = 2 * sum(sizes)
    # each weight product needs a weight gradient and, except the input
    # layer's, an input gradient of the same cost
    backward = 2 * forward - 2 * args["params"]["w_in"].size
    counts["resnet.flops_computed"] += (forward + backward) * args["x"].shape[1]


def _train_epochs(counts, result, args):
    counts["resnet.train.epochs"] += args["config"].epochs


def _ncm_bytes(counts, result, args):
    fs = args["fs"]
    k, n = fs.num_classes, fs.num_samples
    counts["metrics.nearest_class_means.bytes_computed"] += 8 * k * n * (fs.dim + 1)


# (module, attribute, span name, counter)
TARGETS = (
    ("pfc.cli", "main", "cli.main", None),
    ("pfc.harness", "run", "harness.run", None),
    ("pfc.harness", "write_csv", "harness.write_csv", _file_bytes("harness.write_csv.bytes")),
    ("pfc.harness", "sha256_file", "harness.sha256_file",
     _file_bytes("harness.sha256_file.bytes")),
    ("pfc.geodesic", "metric_curve", "geodesic.metric_curve", _curve_points),
    ("pfc.geodesic", "interpolate", "geodesic.interpolate", None),
    ("pfc.geodesic", "random_to_collapse_path", "geodesic.path_build", None),
    ("pfc.geodesic", "perturbed_collapse_path", "geodesic.path_build", None),
    ("pfc.core", "FeatureSet.__post_init__", "core.featureset_new", None),
    ("pfc.core", "class_stats", "core.class_stats", None),
    ("pfc.core", "save_featureset", "core.save_featureset",
     _file_bytes("core.save_featureset.bytes")),
    ("pfc.core", "load_featureset", "core.load_featureset",
     _file_bytes("core.load_featureset.bytes")),
    ("pfc.metrics", "pfc1", "metrics.pfc1", None),
    ("pfc.metrics", "pfc2", "metrics.pfc2", None),
    ("pfc.metrics", "pfc3", "metrics.pfc3", None),
    ("pfc.metrics", "nearest_class_means", "metrics.nearest_class_means", _ncm_bytes),
    ("pfc.metrics", "measure", "metrics.measure", None),
    ("pfc.surrogate", "solve", "surrogate.solve", _solve_work),
    ("pfc.resnet", "resnet_backward", "resnet.resnet_backward", _backward_flops),
    ("pfc.resnet", "resnet_forward", "resnet.resnet_forward", _forward_flops),
    ("pfc.resnet", "train", "resnet.train", _train_epochs),
    ("pfc.data", "gen_gaussian_mixture", "data.gen_gaussian_mixture", None),
    ("pfc.etf", "build_etf", "etf.build_etf", None),
)

LAYERS = sorted({name.partition(".")[0] for _, _, name, _ in TARGETS})

COUNTERS = (
    "geodesic.metric_curve.points",
    "surrogate.solve.epochs",
    "surrogate.solve.flops_computed",
    "resnet.flops_computed",
    "resnet.train.epochs",
    "metrics.nearest_class_means.bytes_computed",
    "harness.write_csv.bytes",
    "harness.sha256_file.bytes",
    "core.save_featureset.bytes",
    "core.load_featureset.bytes",
)

# count suffixes that must repeat exactly between two traced runs
EXACT_SUFFIXES = (".calls", ".points", ".epochs", ".bytes", "_computed")


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counts = Counter()

    def wrap(self, fn, name, count=None):
        spans, open_spans, counts = self.spans, self._open, self.counts
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
            if count is not None:
                count(counts, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self):
        """Wrap every target; all ``pfc`` modules must already be imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pfc" or key.startswith("pfc.")]
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, method, self.wrap(getattr(owner, method), name, count))
                continue
            original = getattr(module, attr)
            traced = self.wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def summary(self, run_s: float) -> dict:
        """Per-function calls, self and total seconds, per-layer self
        seconds, the counts, and the part of ``run_s`` outside every span."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = {f"{name}.{suffix}": 0 for _, _, name, _ in TARGETS
               for suffix in ("calls", "self_s", "total_s")}
        out.update({f"layer.{layer}.self_s": 0.0 for layer in LAYERS})
        out.update({key: 0 for key in COUNTERS})
        out.update(self.counts)
        root_s = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child_s):
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - inner
            out[f"{name}.total_s"] += duration
            out[f"layer.{name.partition('.')[0]}.self_s"] += duration - inner
            if parent < 0:
                root_s += duration
        out["geodesic.metric_curve.us_per_point"] = _per(
            out["geodesic.metric_curve.total_s"], out["geodesic.metric_curve.points"])
        out["surrogate.solve.us_per_epoch"] = _per(
            out["surrogate.solve.total_s"], out["surrogate.solve.epochs"])
        out["trace.untraced_share"] = (run_s - root_s) / run_s
        return out


def _per(seconds, count):
    return 1e6 * seconds / count if count else 0.0
