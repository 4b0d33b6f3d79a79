#!/bin/bash
# Regenerate every table/figure/experiment at its default (paper) scale:
# runs `vine-fig <name>` for each row of vine-fig's experiment table, in
# table order. Writes console output to results/logs/<name>.log and CSVs
# to results/. Stops at the first experiment that exits nonzero and
# prints each experiment's wall time.
#
# Build first:  cargo build --release
#
# Optional: OBS_OUT=dir ./run_all_experiments.sh
#   passes `--trace-out dir --metrics` to every experiment, so each one
#   also exports Chrome traces, span/counter CSVs, attribution rows,
#   digests, and a metrics dump for its recorded runs.
set -euo pipefail
cd "$(dirname "$0")"
bin=./target/release/vine-fig
if [ ! -x "$bin" ]; then
  echo "error: $bin not found or not executable." >&2
  echo "       Build it first:  cargo build --release" >&2
  exit 1
fi
# With no name, vine-fig lists its table on stderr (indented rows) and
# exits 2.
names=$("$bin" 2>&1 | awk '/^  / { print $1 }' || true)
if [ -z "$names" ]; then
  echo "error: $bin listed no experiments" >&2
  exit 1
fi
obs=()
if [ -n "${OBS_OUT:-}" ]; then
  obs=(--trace-out "$OBS_OUT" --metrics)
fi
mkdir -p results/logs
for name in $names; do
  echo "=== $name ($(date +%H:%M:%S)) ==="
  start=$(date +%s)
  status=0
  "$bin" "$name" ${obs[@]+"${obs[@]}"} > results/logs/"$name".log 2>&1 || status=$?
  echo "    $name: exit=$status wall=$(($(date +%s) - start))s"
  if [ "$status" -ne 0 ]; then
    echo "error: $name failed (exit $status); see results/logs/$name.log" >&2
    exit "$status"
  fi
done
echo "ALL EXPERIMENTS DONE"
