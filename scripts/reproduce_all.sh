#!/usr/bin/env bash
# Run every experiment kind with its default configuration.  Artifacts
# land under runs/<kind>/, each with a manifest of sha256 checksums, so
# a second invocation can be diffed file-for-file.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
  echo "== pfc $* =="
  python3 -m pfc "$@"
}

run etf-check
run interpolate
run theorem1
run theorem2
run equivalence-thm3  # ~ 1.5 s
run solve-ufm      # ~ 1.2 s
run solve-mufm     # ~ 1.3 s
run train-resnet   # ~ 29 s
run sweep-lambda   # ~ 3 s

# pfc-report consumes saved layer snapshots; feed it the ones the
# training run's manifest lists.
files=$(python3 -c "import json; a = json.load(open('runs/train-resnet/manifest.json'))['artifacts']; print(json.dumps(['runs/train-resnet/' + f for f in sorted(a) if f.startswith('layers/')]))")
run pfc-report --set "stack_files=$files"

echo "all runs complete; artifacts in runs/"
