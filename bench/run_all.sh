#!/usr/bin/env bash
# Runs every benchmark binary with fixed seeds and collects the emitted
# BENCH_*.json files into a per-commit snapshot under
# bench/baselines/<git-short-sha>/. A rolling history is kept:
#
#   bench/baselines/HISTORY   one snapshot name per line, oldest first;
#                             pruned to the newest $KEEP entries (pruned
#                             snapshot dirs are deleted)
#   bench/baselines/LATEST    the most recent snapshot name -- what
#                             check_bench_json --baseline-dir resolves
#
# Each fresh JSON is compared against the PREVIOUS snapshot (the LATEST at
# the start of the run) before HISTORY/LATEST are advanced, so regressions
# show as trends between consecutive committed snapshots. Commit the new
# snapshot dir plus HISTORY/LATEST to refresh the baseline.
#
#   bench/run_all.sh [build-dir] [--smoke] [--gate]
#
# Workload seeds are compiled into each bench (every case constructs its
# traces from fixed Rng seeds), so runs are reproducible up to machine
# speed. --smoke forwards the harness's single-iteration mode for a fast
# sanity pass; smoke results go to a scratch dir and never touch
# HISTORY/LATEST -- do NOT commit a smoke baseline.
#
# --gate is the CI perf gate: FULL workloads (no --smoke), each fresh JSON
# checked against the committed LATEST snapshot with check_bench_json
# --hard, so any regressed counter fails the run (exit 1). Results go to
# the gate-scratch dir and HISTORY/LATEST are never advanced -- the gate
# compares against the committed baseline, it does not move it. Meant for
# a quiet runner (the bench-gate CI job); on a noisy laptop expect false
# positives at the default tolerance.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build
SMOKE=""
GATE=""
KEEP=5
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE="--smoke" ;;
    --gate) GATE=1 ;;
    -*) echo "usage: bench/run_all.sh [build-dir] [--smoke] [--gate]" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
if [ -n "$SMOKE" ] && [ -n "$GATE" ]; then
  echo "run_all.sh: --smoke and --gate are mutually exclusive (the gate needs full workloads)" >&2
  exit 2
fi

BENCH_DIR="$BUILD_DIR/bench"
BASE_DIR=bench/baselines
if [ ! -d "$BENCH_DIR" ]; then
  echo "run_all.sh: no benchmark binaries in $BENCH_DIR -- build first:" >&2
  echo "  cmake -B $BUILD_DIR && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

SNAP=$(git rev-parse --short HEAD 2>/dev/null || echo "nogit")
if [ -n "$SMOKE" ]; then
  OUT_DIR="$BASE_DIR/smoke-scratch"
  rm -rf "$OUT_DIR"
elif [ -n "$GATE" ]; then
  OUT_DIR="$BASE_DIR/gate-scratch"
  rm -rf "$OUT_DIR"
else
  OUT_DIR="$BASE_DIR/$SNAP"
fi
mkdir -p "$OUT_DIR"

status=0
checker=$(find "$BUILD_DIR" -maxdepth 2 -name check_bench_json -type f | head -n1)
for bin in "$BENCH_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  json="$OUT_DIR/BENCH_$name.json"
  echo "== $name${SMOKE:+ (smoke)} =="
  if ! "$bin" $SMOKE "--bench-out=$json"; then
    echo "run_all.sh: $name FAILED" >&2
    status=1
    continue
  fi
  # Compare against the previous snapshot (LATEST is not advanced yet).
  # In gate mode a regressed counter is a hard failure, not a warning.
  if [ -n "$checker" ]; then
    "$checker" "--baseline-dir=$BASE_DIR" ${GATE:+--hard} "$json" || status=1
  fi
done

echo
if [ -n "$SMOKE" ]; then
  echo "smoke results written to $OUT_DIR/ (scratch; HISTORY/LATEST untouched)"
  ls -l "$OUT_DIR"/BENCH_*.json
  exit $status
fi
if [ -n "$GATE" ]; then
  if [ "$status" -ne 0 ]; then
    echo "PERF GATE FAILED: counters regressed against $(cat "$BASE_DIR/LATEST" 2>/dev/null || echo '<no baseline>') (see check_bench_json output above)" >&2
  else
    echo "perf gate passed against $(cat "$BASE_DIR/LATEST" 2>/dev/null || echo '<no baseline>')"
  fi
  echo "gate results written to $OUT_DIR/ (scratch; HISTORY/LATEST untouched)"
  exit $status
fi

# Advance the rolling history: append this snapshot, prune to $KEEP.
HISTORY="$BASE_DIR/HISTORY"
touch "$HISTORY"
grep -vFx "$SNAP" "$HISTORY" > "$HISTORY.tmp" || true
echo "$SNAP" >> "$HISTORY.tmp"
mv "$HISTORY.tmp" "$HISTORY"
while [ "$(wc -l < "$HISTORY")" -gt "$KEEP" ]; do
  oldest=$(head -n1 "$HISTORY")
  tail -n +2 "$HISTORY" > "$HISTORY.tmp" && mv "$HISTORY.tmp" "$HISTORY"
  if [ -n "$oldest" ] && [ -d "$BASE_DIR/$oldest" ]; then
    echo "pruning old snapshot $BASE_DIR/$oldest"
    rm -rf "${BASE_DIR:?}/$oldest"
  fi
done
echo "$SNAP" > "$BASE_DIR/LATEST"

# Sweep snapshot dirs that are no longer reachable from HISTORY: interrupted
# runs and entries that fell off the tail before this pruning existed would
# otherwise accumulate forever. smoke-scratch is transient by design; keep it.
for dir in "$BASE_DIR"/*/; do
  [ -d "$dir" ] || continue
  snap=$(basename "$dir")
  [ "$snap" = "smoke-scratch" ] && continue
  if ! grep -qFx "$snap" "$HISTORY"; then
    echo "pruning orphaned snapshot $BASE_DIR/$snap"
    rm -rf "${BASE_DIR:?}/$snap"
  fi
done

echo "baseline snapshot written to $OUT_DIR/ (LATEST -> $SNAP):"
ls -l "$OUT_DIR"/BENCH_*.json
exit $status
