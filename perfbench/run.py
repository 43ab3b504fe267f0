"""pfc benchmark: seeded CLI workloads, a per-run correctness gate, a layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload {curves,fit} --seed N --seconds S \
        --trace {0,1} [--record FILE]

Runs are a closed loop with one client: each run is a fresh child process
(``child.py``) that calls ``pfc.cli.main`` for the workload's invocations
with BLAS and OpenMP pinned to one thread, and the next run starts when it
has exited.  Runs repeat while the next one is expected to end within
``--seconds`` (at least three; at least two traced and two untraced with
``--trace 1``).  Every run writes into fresh output directories and must
pass the gate: each CLI call exits 0, every CSV cell is finite, artifact
digests equal those of the invocation's first run, and each kind's
invariants in ``workloads.CHECKS`` hold.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, medians over the runs.  With ``--trace 1`` untraced and
traced runs alternate, and the metrics are the per-layer ones: medians of
the traced runs' times and counts.  ``trace.count_mismatches`` counts the
exact counts that differ between traced runs or from the workload's
structural counts; it is 0 when the trace is complete.  The last line of
standard output is the result object; the lines before it give each metric
with its unit and sample count, and the environment record, which
``--record`` also writes to a file together with every run's samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import EXACT_SUFFIXES
from workloads import CHECKS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 120
END_TO_END_KEYS = ("run_rel", "cpu_rel", "setup_s", "peak_rss_mb")
# raw times, printed and recorded beside the metrics
RAW_KEYS = {"run_s": "s", "cpu_s": "s", "calib_s": "s"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def invocations(params, seed, run_dir):
    out = {}
    argvs = []
    for kind, overrides in params.items():
        out[kind] = run_dir / kind
        argv = [kind, "--seed", str(seed), "--out", out[kind].relative_to(ROOT).as_posix()]
        for key, value in overrides.items():
            argv += ["--set", f"{key}={json.dumps(value)}"]
        argvs.append(argv)
    return argvs, out


def csv_problems(out_dir: Path) -> list[str]:
    problems = []
    for path in sorted(out_dir.rglob("*.csv")):
        for line_no, line in enumerate(path.read_text().splitlines()[1:], start=2):
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{path.name}:{line_no}: non-finite cell {cell!r}")
                    break
    return problems


def run_once(params, seed, run_dir, trace, env, reference):
    """One child run; returns (child result or None, list of problems).
    ``reference`` maps kind to the artifact digests of the first run."""
    run_dir.mkdir(parents=True)
    argvs, out = invocations(params, seed, run_dir)
    job = run_dir / "job.json"
    job.write_text(json.dumps({
        "invocations": argvs, "trace": trace, "result": str(run_dir / "result.json"),
    }))
    log = run_dir / "child.log"
    try:
        with open(log, "w") as fh:
            spawned = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job), repr(spawned)],
                cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
    except subprocess.TimeoutExpired:
        return None, [f"child killed after {CHILD_TIMEOUT_S} s"]
    if proc.returncode != 0:
        return None, [f"child exited {proc.returncode}: {log.read_text()[-2000:]}"]
    result = json.loads((run_dir / "result.json").read_text())
    problems = [f"{argv[0]} exited {code}"
                for argv, code in zip(argvs, result["exit_codes"]) if code != 0]
    if problems:
        return result, problems + [log.read_text()[-2000:]]
    for kind, out_dir in out.items():
        digests = json.loads((out_dir / "manifest.json").read_text())["artifacts"]
        reference.setdefault(kind, digests)
        if digests != reference[kind]:
            problems.append(f"{kind}: artifact digests differ from the first run")
        problems += csv_problems(out_dir)
        summary = json.loads((out_dir / "summary.json").read_text())
        problems += [f"{kind}: {p}" for p in CHECKS[kind](summary, out_dir)]
    shutil.rmtree(run_dir)
    return result, problems


def count_mismatches(traced, expected):
    """Counts that differ between traced runs or from the structural counts."""
    problems = []
    first = traced[0]["trace"]
    for key in first:
        if key.endswith(EXACT_SUFFIXES):
            seen = {r["trace"][key] for r in traced}
            if len(seen) > 1:
                problems.append(f"count {key} differs between traced runs: {sorted(seen)}")
    for key, value in expected.items():
        if first[key] != value:
            problems.append(f"count {key} is {first[key]}, expected {value}")
    return problems


def environment(args, workload, params, results) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    threads = {r["blas_threads"] for r in results}
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": params,
        "unchecked_claims": list(workload.unchecked),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_in_force": sorted(threads, key=str),
        "blas_threads_verified": None not in threads and threads == {1},
        "thread_env": {key: os.environ.get(key) for key in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", type=Path, default=None,
                        help="also write the environment record and all samples here")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pfc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"{ROOT} lacks src/pfc/cli.py or BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.environ.update(THREAD_ENV)
    env = child_env()
    workload = WORKLOADS[args.workload]
    params = {kind: dict(p) for kind, p in workload.params.items()}
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # compile bytecode once so no run pays for it
        subprocess.run([sys.executable, "-c", "import pfc.cli"], cwd=ROOT, env=env,
                       check=True, timeout=CHILD_TIMEOUT_S)
        if workload.prepare is not None:
            for kind, extra in workload.prepare(args.seed, work, ROOT).items():
                params[kind].update(extra)
        expected = workload.expected_counts(params, ROOT)

        untraced, traced, problems, mismatches = [], [], [], []
        reference = {}
        attempted = failed = 0
        min_runs = 4 if args.trace else 3
        start = time.monotonic()
        duration = 0.0  # of the last run, so the next one should end in time
        while attempted < min_runs or time.monotonic() - start + duration < args.seconds:
            begun = time.monotonic()
            trace = bool(args.trace) and attempted % 2 == 0
            result, run_problems = run_once(
                params, args.seed, work / f"run_{attempted:03d}", trace, env, reference,
            )
            attempted += 1
            duration = time.monotonic() - begun
            if run_problems:
                failed += 1
                problems += [f"run {attempted}: {p}" for p in run_problems]
            if result is not None:
                (traced if trace else untraced).append(result)
        if traced:
            mismatches = count_mismatches(traced, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    samples = {}
    if args.trace:
        derived = {"trace.overhead", "trace.run_s", "trace.count_mismatches"}
        for key in {m["name"] for m in wanted} - derived:
            samples[key] = [r["trace"][key] for r in traced]
        samples["trace.run_s"] = [r["run_s"] for r in traced]
        samples["trace.count_mismatches"] = [len(mismatches)]
        samples["trace.overhead"] = [
            statistics.median(samples["trace.run_s"])
            / statistics.median(r["run_s"] for r in untraced) - 1.0
        ] if traced and untraced else []
    else:
        for key in (*END_TO_END_KEYS, *RAW_KEYS):
            samples[key] = [r[key] for r in untraced]
        samples["success_rate"] = [(attempted - failed) / attempted]
    for m in wanted:
        values = samples[m["name"]]
        # exact counts repeat in every traced run, so their median is any value
        if not values:
            value = 0.0
        elif m["name"].endswith(EXACT_SUFFIXES):
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    env_record = environment(args, workload, params, untraced + traced)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    for p in mismatches:
        print(f"TRACE {p}", file=sys.stderr)
    lines = [(m["name"], metrics[m["name"]]["value"], m["unit"]) for m in wanted]
    if not args.trace:
        lines += [(key, statistics.median(samples[key]) if samples[key] else 0.0, unit)
                  for key, unit in RAW_KEYS.items()]
    for name, value, unit in lines:
        values = samples[name]
        spread = f", min {min(values):.6g}, max {max(values):.6g}" if len(values) > 1 else ""
        print(f"{name}: {value:.6g} {unit} (median of {len(values)}{spread})")
    print("environment " + json.dumps(env_record, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record is not None:
        args.record.write_text(json.dumps(
            {"environment": env_record, "samples": samples, "problems": problems,
             "count_mismatches": mismatches, "result": result}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
