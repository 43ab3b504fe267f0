"""One benchmark run in a fresh process.

Usage: python3 child.py JOB_JSON SPAWN_MONOTONIC

Imports ``pfc.cli``, calls ``pfc.cli.main`` once per argument list in the
job file, and writes its timings to the job's result file.  ``setup_s``
runs from SPAWN_MONOTONIC, read by the parent just before it started this
process, until ``pfc.cli`` is imported.  The job's ``trace`` flag installs
the span tracer after that point, so set-up is timed the same either way.
Exits 3 without running if OpenBLAS reports more than one thread.

The calibration kernel runs before the first CLI call and after each one,
outside the timed calls.  Its median time ``calib_s`` tracks how fast the
machine runs at that moment, so ``run_rel = run_s / calib_s`` stays steady
while the speed of a shared machine drifts.
"""

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def calibrate() -> float:
    """Wall seconds of a fixed single-threaded kernel made of the two kinds
    of work pfc runs: an interpreter loop and small matrix products."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    data, weights = np.ones((20, 500)), np.ones((5, 20))
    for _ in range(3000):
        logits = weights @ data
        logits -= 1.0
    return time.perf_counter() - start


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if the
    library bundled with numpy exposes no thread query."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def main() -> int:
    job_path, spawned = sys.argv[1], float(sys.argv[2])
    import pfc.cli

    setup_s = time.monotonic() - spawned
    with open(job_path) as fh:
        job = json.load(fh)
    threads = blas_threads()
    if threads is not None and threads != 1:
        print(f"OpenBLAS runs {threads} threads; the benchmark needs 1", file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    calibrate()  # the first call pays numpy's one-time costs
    calib = [calibrate()]
    codes = []
    run_s = cpu_s = 0.0
    for argv in job["invocations"]:
        cpu0 = _cpu_s()
        start = time.perf_counter()
        codes.append(pfc.cli.main(argv))
        run_s += time.perf_counter() - start
        cpu_s += _cpu_s() - cpu0
        calib.append(calibrate())
    calib_s = statistics.median(calib)

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "calib_s": calib_s,
        "run_rel": run_s / calib_s,
        "cpu_rel": cpu_s / calib_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "exit_codes": codes,
        "blas_threads": threads,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(run_s)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
