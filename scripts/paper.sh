#!/usr/bin/env bash
# Runs one experiment spec of the paper's evaluation and regenerates
# EXPERIMENTS.md from the recorded results.
#
# Usage: scripts/paper.sh [spec.json] [repeat]
#
#   scripts/paper.sh                                # scripts/paper/bench.json, its own repeat count
#   scripts/paper.sh scripts/paper/bench.json 1     # one repeat: the golden pattern-count check
#   scripts/paper.sh scripts/paper/grid.json        # top-k scaling grid on this machine
#   scripts/paper.sh scripts/paper/full.json        # paper-scale datasets (hours)
#
# The run lands in the CSV next to the spec (bench.json -> bench.csv).
# Pattern counts are deterministic, so when that CSV already exists the
# new run must reproduce every (row, pattern count, truncation, case-study
# result) of it; otherwise the script fails and leaves the new run in
# <csv>.new without touching anything. On success the CSV is replaced and
# everything below the marker line of EXPERIMENTS.md is re-rendered from
# the bench, grid and full CSVs that exist.
set -euo pipefail
cd "$(dirname "$0")/.."

SPEC="${1:-scripts/paper/bench.json}"
REPEAT="${2:-0}"
CSV="${SPEC%.json}.csv"
MARKER='<!-- Generated by scripts/paper.sh from scripts/paper/*.csv; edit above this line only. -->'

BIN="$(mktemp -d)"
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/experiments" ./cmd/experiments

"$BIN/experiments" -spec "$SPEC" -repeat "$REPEAT" -csv "$CSV.new"

# figure, series, x, dataset, query, patterns, truncated, post: the
# deterministic columns, one line per row whatever the repeat count.
counts() { cut -d, -f1-5,8,9,14 "$1" | sort -u; }
if [[ -f "$CSV" ]] && ! diff <(counts "$CSV") <(counts "$CSV.new"); then
  echo "paper.sh: results differ from the committed $CSV (new run kept in $CSV.new)" >&2
  exit 1
fi
mv "$CSV.new" "$CSV"

CSVS=""
for name in bench grid full; do
  [[ -f "scripts/paper/$name.csv" ]] && CSVS="${CSVS:+$CSVS,}scripts/paper/$name.csv"
done
{
  awk -v marker="$MARKER" '{ print } $0 == marker { exit }' EXPERIMENTS.md
  echo
  "$BIN/experiments" -render "$CSVS"
} > EXPERIMENTS.md.new
grep -qxF "$MARKER" EXPERIMENTS.md.new || { echo "paper.sh: EXPERIMENTS.md lacks the marker line" >&2; exit 1; }
mv EXPERIMENTS.md.new EXPERIMENTS.md
echo "rendered $CSVS into EXPERIMENTS.md"
