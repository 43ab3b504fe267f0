#!/usr/bin/env bash
# Run every experiment kind of harness.KINDS with its default configuration.
# Artifacts land under runs/<kind>/, each with a manifest of sha256
# checksums, so a second invocation can be diffed file-for-file.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

run() {
  echo "== pfc $* =="
  python3 -m pfc "$@"
}

# pfc-report runs last: it consumes the layer snapshots that the training
# run's manifest lists.
for kind in $(python3 -c "from pfc.harness import KINDS; print(*(k for k in KINDS if k != 'pfc-report'))"); do
  run "$kind"
done
files=$(python3 -c "import json; a = json.load(open('runs/train-resnet/manifest.json'))['artifacts']; print(json.dumps(['runs/train-resnet/' + f for f in sorted(a) if f.startswith('layers/')]))")
run pfc-report --set "stack_files=$files"

echo "all runs complete; artifacts in runs/"
