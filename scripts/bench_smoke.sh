#!/usr/bin/env bash
# Benchmark smoke run: the Fig2 min_sup sweep, the parallel-scaling sweeps
# and the Table 1 semantics check, emitted as BENCH_PR<N>.json with
# per-benchmark pattern counts, ns/op, B/op and allocs/op plus total wall
# time. This is the repo's perf trajectory: each PR emits BENCH_PR<N>.json
# from the same suite, and scripts/bench_compare.sh diffs two of them so
# regressions show up as a per-benchmark delta table.
#
# Each benchmark runs with -count=3 and the MEDIAN of each metric is
# recorded, so a single noisy-scheduler outlier cannot trip the blocking
# CI gate.
#
# The CPU count is pinned (go test -cpu, i.e. GOMAXPROCS) and recorded as
# "cpu" in the JSON: multi-worker rows clamp their worker count to
# GOMAXPROCS, so their allocs/op and ns/op depend on it, and
# scripts/bench_compare.sh refuses to compare files recorded at different
# counts. The iteration count is fixed per group, so allocs/op is the
# same quotient in every file:
#   - sequential mining rows run 1 iteration: each takes milliseconds and
#     allocates the same count every run;
#   - scheduler-dependent rows (multi-worker mines, and Table1, whose
#     allocs/op moved 1253..1256 at 1 iteration) run SCHED_ITERS, which
#     settles Table1 and halves the multi-worker rows' spread;
#   - append rows run APPEND_ITERS, so one-off costs (directory setup,
#     first segment, slice growth) amortize below one allocation per op,
#     five identical runs report the same allocs/op, and one scheduler
#     hiccup cannot dominate ns/op (at 200 iterations, five InMemoryAppend
#     runs spread from 1.4 to 6.0 us/op; at 2000, from 2.5 to 2.9).
#
# Usage: scripts/bench_smoke.sh [output.json]
#
# The default output name is deliberately NOT a committed BENCH_PR<N>.json:
# those are per-PR baselines recorded once (pass the name explicitly), and
# a bare local run must not clobber the baseline CI compares against.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_LOCAL.json}"
CPU=2
SCHED_ITERS=10
APPEND_ITERS=2000
MINE_SUITE='Fig2$|ReplicaCatchup'
SCHED_SUITE='Fig2ParallelScaling|TopKParallelScaling|Table1'
APPEND_SUITE='DurableAppend|InMemoryAppend'
SUITE="$MINE_SUITE|$SCHED_SUITE|$APPEND_SUITE"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

bench() { # regexp iterations
	go test -run '^$' -bench "$1" -benchtime "$2x" -count=3 -benchmem -cpu "$CPU" | tee -a "$RAW"
}
START_NS=$(date +%s%N)
bench "$MINE_SUITE" 1
bench "$SCHED_SUITE" "$SCHED_ITERS"
bench "$APPEND_SUITE" "$APPEND_ITERS"
END_NS=$(date +%s%N)
WALL_MS=$(((END_NS - START_NS) / 1000000))

awk -v wall_ms="$WALL_MS" -v suite="$SUITE" -v cpu="$CPU" \
	-v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
	-v go_version="$(go env GOVERSION)" '
function median(arr, cnt,    i, j, tmp) {
	# insertion sort the numeric samples, return the middle one
	for (i = 2; i <= cnt; i++) {
		tmp = arr[i]; j = i - 1
		while (j >= 1 && arr[j] + 0 > tmp + 0) { arr[j + 1] = arr[j]; j-- }
		arr[j + 1] = tmp
	}
	return arr[int((cnt + 1) / 2)]
}
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	if (!(name in idx)) { order[++n] = name; idx[name] = 1 }
	cnt[name]++
	iters[name] = $2
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "ns/op") ns[name, cnt[name]] = $i
		if ($(i + 1) == "patterns") pat[name, cnt[name]] = $i
		if ($(i + 1) == "B/op") by[name, cnt[name]] = $i
		if ($(i + 1) == "allocs/op") al[name, cnt[name]] = $i
	}
}
END {
	printf "{\n  \"suite\": \"%s\",\n  \"commit\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": %d,\n  \"samples\": 3,\n  \"wall_ms\": %d,\n  \"benchmarks\": [\n", suite, commit, go_version, cpu, wall_ms
	for (i = 1; i <= n; i++) {
		name = order[i]
		c = cnt[name]
		for (s = 1; s <= c; s++) {
			m_ns[s] = ((name, s) in ns) ? ns[name, s] : "null"
			m_by[s] = ((name, s) in by) ? by[name, s] : "null"
			m_al[s] = ((name, s) in al) ? al[name, s] : "null"
			m_pat[s] = ((name, s) in pat) ? pat[name, s] : "null"
		}
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"patterns\": %s}%s\n", \
			name, iters[name], median(m_ns, c), median(m_by, c), median(m_al, c), median(m_pat, c), (i < n ? "," : "")
	}
	printf "  ]\n}\n"
}' "$RAW" >"$OUT"

echo "wrote $OUT"
