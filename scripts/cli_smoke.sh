#!/usr/bin/env bash
# Runs each experiment command once through the installed `lockern` script,
# on a small synthetic set with a k-NN config, and `experiment` with that
# config under unit and under magnitude preprocessing (the default is
# binary); then checks that each refused
# config exits 1 and creates no output directory: a NaN C, a localized q
# below 1, and a negative euclidean_rbf gamma.
# Usage: scripts/cli_smoke.sh <directory for the runs' outputs>
set -euo pipefail
root=${1:?usage: cli_smoke.sh <output directory>}
mkdir -p "$root"

config="$root/knn.cfg"
printf 'classifier = knn\nknn_k = 1\nr = 6\ntrials = 2\n' > "$config"
for command in experiment sweep-dim sweep-frac holdout; do
  lockern --out-dir "$root/$command" "$command" --synthetic --per-cell 2 --config "$config"
done
for preprocessing in unit magnitude; do
  printf 'preprocessing = %s\n' "$preprocessing" | cat "$config" - > "$root/knn-$preprocessing.cfg"
  lockern --out-dir "$root/experiment-$preprocessing" experiment --synthetic --per-cell 2 \
    --config "$root/knn-$preprocessing.cfg"
done

refused=(
  'classifier = knn\nC = nan\n'
  'q = 0\ntrials = 1\n'
  'kernel_kind = euclidean_rbf\ngamma = -1\ntrials = 1\n'
)
for k in "${!refused[@]}"; do
  printf '%b' "${refused[$k]}" > "$root/refused$k.cfg"
  status=0
  lockern --out-dir "$root/refused$k" experiment --synthetic --per-cell 2 \
    --config "$root/refused$k.cfg" || status=$?
  if [ "$status" -ne 1 ]; then
    echo "refused config $k exited $status, not 1" >&2
    exit 1
  fi
  if [ -e "$root/refused$k" ]; then
    echo "refused config $k left $root/refused$k behind" >&2
    exit 1
  fi
done
