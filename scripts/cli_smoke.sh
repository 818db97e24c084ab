#!/usr/bin/env bash
# Runs each experiment command once through the installed `lockern` script,
# on a small synthetic set with a k-NN config, then checks that a refused
# config exits 1 and creates no output directory.
# Usage: scripts/cli_smoke.sh <directory for the runs' outputs>
set -euo pipefail
root=${1:?usage: cli_smoke.sh <output directory>}
mkdir -p "$root"

config="$root/knn.cfg"
printf 'classifier = knn\nknn_k = 1\nr = 6\ntrials = 2\n' > "$config"
for command in experiment sweep-dim sweep-frac holdout; do
  lockern --out-dir "$root/$command" "$command" --synthetic --per-cell 2 --config "$config"
done

refused="$root/refused.cfg"
printf 'classifier = knn\nC = nan\n' > "$refused"
status=0
lockern --out-dir "$root/refused" experiment --synthetic --per-cell 2 --config "$refused" || status=$?
if [ "$status" -ne 1 ]; then
  echo "refused config exited $status, not 1" >&2
  exit 1
fi
if [ -e "$root/refused" ]; then
  echo "refused config left $root/refused behind" >&2
  exit 1
fi
