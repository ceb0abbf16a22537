#!/usr/bin/env bash
# Regenerate every paper table/figure and the ablations into results/.
#
#   scripts/run_experiments.sh [--quick|--full] [build-dir]
#
# Produces results/<bench>.txt plus a summary line per bench; exits
# non-zero if any shape check fails.
set -u

EFFORT=""
BUILD="build"
for arg in "$@"; do
  case "$arg" in
    --quick|--full) EFFORT="$arg" ;;
    *) BUILD="$arg" ;;
  esac
done

OUT="results"
mkdir -p "$OUT"
status=0

for bench in "$BUILD"/bench/bench_*; do
  name=$(basename "$bench")
  "$bench" $EFFORT > "$OUT/$name.txt" 2>&1
  rc=$?
  if [ $rc -eq 0 ]; then
    echo "PASS $name"
  else
    echo "FAIL $name (exit $rc)"
    status=1
  fi
done

echo
echo "outputs in $OUT/"
exit $status
