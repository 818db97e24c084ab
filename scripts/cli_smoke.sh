#!/usr/bin/env bash
# Runs each experiment command once through the installed `lockern` script,
# on a small synthetic set with a k-NN config, and `experiment` with that
# config under unit and under magnitude preprocessing (the default is
# binary). Four SVM runs follow: `experiment` with the default config (PCA,
# localized kernel), and `holdout`, `sweep-frac` and `sweep-dim --r-values
# 2,3,5` with an SVD Grassmann config: the fractions share one pool of SVD
# features, and the r values cut theirs from one SVD per sample. `kernel-eval`
# tabulates the default localized kernel and must exit 2 for a negative
# gamma, and `features` writes the synthetic set's SVD features and PCA
# inputs and must exit 2 for an --r below 1, creating no output directory.
# Then it checks that each refused
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
lockern --out-dir "$root/experiment-svm" experiment --synthetic --per-cell 2
printf 'feature = svd\nkernel_kind = grassmann\nr = 5\n' > "$root/grassmann.cfg"
lockern --out-dir "$root/holdout-grassmann" holdout --synthetic --per-cell 2 \
  --config "$root/grassmann.cfg"
lockern --out-dir "$root/sweep-frac-grassmann" sweep-frac --synthetic --per-cell 2 \
  --config "$root/grassmann.cfg"
lockern --out-dir "$root/sweep-dim-grassmann" sweep-dim --synthetic --per-cell 2 \
  --r-values 2,3,5 --config "$root/grassmann.cfg"

lockern kernel-eval --N 8 --q 18 --steps 20 > "$root/kernel-eval.csv"
status=0
lockern kernel-eval --N 8 --q 18 --gamma -1 > /dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "kernel-eval with gamma -1 exited $status, not 2" >&2
  exit 1
fi
for feature in svd pca-input; do
  lockern --out-dir "$root/features-$feature" features --synthetic --feature "$feature"
done
status=0
lockern --out-dir "$root/features-r0" features --synthetic --r 0 || status=$?
if [ "$status" -ne 2 ]; then
  echo "features with --r 0 exited $status, not 2" >&2
  exit 1
fi
if [ -e "$root/features-r0" ]; then
  echo "features with --r 0 left $root/features-r0 behind" >&2
  exit 1
fi

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
