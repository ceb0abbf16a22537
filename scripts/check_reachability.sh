#!/usr/bin/env bash
# Reachability gate: every function defined under src/ must be linked into
# at least one shipped program (the CLI, the benches, the examples), or be
# listed with a reason in scripts/reachability_allowlist.txt.
#
#   scripts/check_reachability.sh [build-dir]
#
# Builds the shipped programs at -O0 with one section per function and
# links them with --gc-sections, so a function survives in a binary only
# if something the binary runs refers to it. The check then subtracts the
# binaries' symbols from the strong text symbols of every src/ object
# (weak symbols — templates, std:: instantiations, inline functions — are
# not counted). Exit 0 when the unreached set equals the allowlist, 1 when
# a function is newly unreached or an allowlist entry is reached again.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build-reach}"
ALLOWLIST="$ROOT/scripts/reachability_allowlist.txt"

TARGETS=(synergy_cli)
BINARIES=("$BUILD/tools/synergy")
for example in "$ROOT"/examples/*.cpp; do
  TARGETS+=("$(basename "$example" .cpp)")
  BINARIES+=("$BUILD/examples/$(basename "$example" .cpp)")
done
for bench in "$ROOT"/bench/bench_*.cpp; do
  TARGETS+=("$(basename "$bench" .cpp)")
  BINARIES+=("$BUILD/bench/$(basename "$bench" .cpp)")
done

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
cmake --build "$BUILD" --target "${TARGETS[@]}" -j "${JOBS:-2}" > /dev/null

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Strong (T) and local (t) text symbols of the project's own functions:
# out-of-line definitions in one src/ object. Library instantiations and
# the lambdas inside a function go with that function.
find "$BUILD/src" -name '*.o' -print0 |
  xargs -0 nm -C --defined-only |
  awk '$2 == "T" || $2 == "t" { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
  grep '^synergy::' | grep -v '{lambda' | sort -u > "$WORK/defined"

for binary in "${BINARIES[@]}"; do
  nm -C --defined-only "$binary" | awk '{ $1 = ""; $2 = ""; sub(/^  /, ""); print }'
done | sort -u > "$WORK/linked"

comm -23 "$WORK/defined" "$WORK/linked" > "$WORK/unreached"
# Allowlist lines: "<demangled symbol>  # <reason>"; blank lines and lines
# starting with '#' are comments.
sed -e '/^#/d' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*#.*$//' \
  "$ALLOWLIST" | sort -u > "$WORK/allowed"

status=0
comm -23 "$WORK/unreached" "$WORK/allowed" > "$WORK/new"
if [ -s "$WORK/new" ]; then
  echo "Functions no shipped program reaches (drive them, delete them, or"
  echo "allowlist them with a reason in scripts/reachability_allowlist.txt):"
  sed 's/^/  /' "$WORK/new"
  status=1
fi
comm -13 "$WORK/unreached" "$WORK/allowed" > "$WORK/stale"
if [ -s "$WORK/stale" ]; then
  echo "Allowlisted functions that a shipped program now reaches, or that"
  echo "no longer exist (remove them from the allowlist):"
  sed 's/^/  /' "$WORK/stale"
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "reachability: $(wc -l < "$WORK/defined") src/ functions," \
       "$(wc -l < "$WORK/unreached") unreached, all allowlisted"
fi
exit "$status"
