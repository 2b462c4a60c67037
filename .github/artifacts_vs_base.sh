#!/usr/bin/env bash
# Report which artifacts differ between this checkout and a base checkout:
#
#   bash .github/artifacts_vs_base.sh BASE_DIR
#
# Runs `solve` and `spectrum` at (d, alpha, p) = (3, 0.97, 2.03), a 3x3
# `sweep`, and `spectrum --zero-field` in the d = 3, l = 1 sector, all at
# n = 300, with the package of each tree (its src/), then compares Q.json,
# Q.csv, spectral_report.json, sweep.csv, sweep_manifest.json and the
# zero-field report free/spectral_report.json byte for byte.  No disk cache
# is used, so neither tree reads an operator the other assembled.  It only
# reports, and exits 0 whatever differs, because some changes alter the
# bits on purpose.
set -u
base=$(cd "$1" && pwd)
head=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in base head; do
  tree=${!side}
  out=$work/$side
  mkdir -p "$out"
  for argv in \
      "solve --d 3 --alpha 0.97 --p 2.03 --n 300 --out-dir $out" \
      "spectrum $out/Q --out-dir $out" \
      "sweep --d 3 --alphas 0.97 0.985 1.0 --ps 2.0 2.015 2.03 --n 300 --out-dir $out" \
      "spectrum --zero-field --d 3 --ell 1 --n 300 --out-dir $out/free"; do
    # shellcheck disable=SC2086  # argv is split into words on purpose
    env -u CHOQUARD_LAB_CACHE PYTHONPATH="$tree/src" \
      python -m choquard_lab.cli $argv >/dev/null \
      || echo "$side: '$argv' exited $?"
  done
done

for f in Q.json Q.csv spectral_report.json sweep.csv sweep_manifest.json \
    free/spectral_report.json; do
  if cmp -s "$work/base/$f" "$work/head/$f"; then
    echo "identical: $f"
  else
    echo "differs:   $f"
  fi
done
exit 0
