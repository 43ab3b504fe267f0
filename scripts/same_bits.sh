#!/usr/bin/env bash
# Check that the working tree writes the same bits as a git revision.
#
# Usage: scripts/same_bits.sh REV
#
# Runs all ten experiment kinds at their defaults, and every kind of the
# benchmark at its perfbench/workloads.py sizes, with seed 3 and one BLAS
# thread, once in a `git archive` of REV and once in the working tree.  The
# pfc-report runs of both trees read the same inputs: REV's default
# train-resnet layers, and the benchmark's stack generated at seed 3.  It
# then compares every manifest and every artifact digest, prints each one
# that differs, and exits 1 if any does.  It takes about 40 s per tree on a
# 2-core Xeon, most of it the default train-resnet.
set -euo pipefail
rev=${1:?usage: scripts/same_bits.sh REV}
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/same-bits.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/rev"
git -C "$root" archive "$rev" | tar -x -C "$work/rev"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

python3 - "$root" "$work" "$rev" <<'EOF'
import json
import os
import subprocess
import sys
from pathlib import Path

root, work, rev = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
sys.path[:0] = [str(root), str(root / "src")]
from perfbench.workloads import REPORT_STACK, WORKLOADS, write_stack  # noqa: E402
from pfc.harness import KINDS  # noqa: E402

SEED = 3
stack = [str(p) for p in write_stack(SEED, work / "inputs" / "stack", **REPORT_STACK)]
# (run name, kind, overrides); pfc-report's default run reads the layers
# of REV's default train-resnet, which runs before it (None: read them then)
runs = [(kind, kind, {}) for kind in KINDS if kind != "pfc-report"]
runs.append(("pfc-report", "pfc-report", None))
for name, workload in WORKLOADS.items():
    for kind, params in workload.params.items():
        if kind == "pfc-report":
            params = {**params, "stack_files": stack}
        runs.append((f"{name}-{kind}", kind, params))


for side, tree in (("rev", work / "rev"), ("tree", root)):
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for name, kind, params in runs:
        if params is None:
            layers = work / "runs" / "rev" / "train-resnet" / "layers"
            params = {"stack_files": sorted(str(p) for p in layers.iterdir())}
        out = work / "runs" / side / name
        sets = [arg for key, value in params.items()
                for arg in ("--set", f"{key}={json.dumps(value)}")]
        print(f"== {side}: {name}", flush=True)
        subprocess.run([sys.executable, "-m", "pfc", kind, "--seed", str(SEED),
                        "--out", str(out), *sets], env=env, check=True,
                       stdout=subprocess.DEVNULL)

differ, compared = [], 0
for name, _, _ in runs:
    a, b = (work / "runs" / side / name for side in ("rev", "tree"))
    ma, mb = (json.loads((d / "manifest.json").read_text())["artifacts"] for d in (a, b))
    for rel in sorted(set(ma) | set(mb)):
        compared += 1
        if ma.get(rel) != mb.get(rel):
            differ.append(f"{name}/{rel}")
    compared += 1
    if (a / "manifest.json").read_bytes() != (b / "manifest.json").read_bytes():
        differ.append(f"{name}/manifest.json")
for path in differ:
    print(f"differs: {path}")
print(f"{compared} files in {len(runs)} runs compared against {rev}: {len(differ)} differ")
sys.exit(1 if differ else 0)
EOF
