#!/usr/bin/env bash
# Compare two BENCH_*.json files produced by scripts/bench_smoke.sh and
# print per-benchmark deltas (ns/op, allocs/op). Exit status encodes the
# regression policy CI enforces:
#
#   - ns/op regression >  FAIL_PCT (default 50%)  -> exit 1 (hard failure)
#   - any allocs/op increase                      -> exit 1 (hard failure;
#     the mining core is allocation-free by design, so any new alloc is a
#     real change, not noise) — EXCEPT multi-worker benchmarks
#     ("workers=2" and up), whose per-shard/per-steal allocation counts
#     are scheduler-dependent: those get a +-5% tolerance band and a
#     warning instead, because an identical binary moves a few percent
#     run to run and a zero-tolerance gate there only produces flakes
#   - ns/op regression in (WARN_PCT, FAIL_PCT]    -> exit 0 with a GitHub
#     ::warning:: annotation (noisy-runner territory)
#   - fsync-bound benchmarks ("fsync=always") never hard-fail on ns/op,
#     only warn: their wall time is disk-commit latency, not code, and an
#     identical binary measures 3x+ spreads across runs on shared or
#     virtualized storage. Their allocs/op stays zero-tolerance.
#   - replication benchmarks ("ReplicaCatchup") are warn-only on BOTH
#     ns/op and allocs/op: they push an HTTP stream between processes'
#     worth of goroutines, so wall time and allocation counts are
#     socket- and scheduler-dependent.
#   - allocs/op improvements > 50%                -> exit 0 with a GitHub
#     ::notice:: annotation ("alloc win"): large deliberate drops are
#     surfaced in the PR instead of passing silently
#   - a missing or unparseable input file                 -> exit 2 with
#     an explanation (never a green empty comparison: that would silently
#     disable the gate)
#   - files recorded at different (or unrecorded) CPU counts -> exit 2:
#     multi-worker rows clamp to GOMAXPROCS, so their allocs/op and ns/op
#     are not comparable across counts (a GOMAXPROCS=1 baseline reads
#     every workers>=2 row as an allocs/op regression on a 2-CPU run)
#
# Benchmarks present on only one side are SKIPPED, never failed: a
# benchmark absent from the baseline is new in this PR (it gets a baseline
# when the PR records its own BENCH_PR<N>.json), and one absent from the
# new run was removed or renamed. Both are reported in the summary line so
# a silently shrinking suite is still visible.
#
# Usage: scripts/bench_compare.sh OLD.json NEW.json [warn_pct] [fail_pct]
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 OLD.json NEW.json [warn_pct] [fail_pct]" >&2
	exit 2
fi
OLD="$1"
NEW="$2"
WARN_PCT="${3:-20}"
FAIL_PCT="${4:-50}"

# Refuse to "compare" against nothing: a missing or unparseable baseline
# would otherwise produce an empty delta table and a green exit, silently
# disabling the regression gate (e.g. after a typo'd BENCH_PR<N>.json name
# in CI). Exit 2 distinguishes "gate misconfigured" from "gate failed".
for f in "$OLD" "$NEW"; do
	if [ ! -r "$f" ]; then
		echo "bench_compare: cannot read '$f' — file is missing or unreadable." >&2
		echo "bench_compare: record baselines with: scripts/bench_smoke.sh $f" >&2
		exit 2
	fi
	if ! grep -q '"name": "Benchmark' "$f"; then
		echo "bench_compare: '$f' contains no benchmark entries — empty, truncated, or not a bench_smoke.sh JSON." >&2
		exit 2
	fi
done

# scripts/bench_smoke.sh pins the CPU count and records it as "cpu".
cpu_of() {
	sed -n 's/^  "cpu": \([0-9][0-9]*\),$/\1/p' "$1"
}
OLD_CPU="$(cpu_of "$OLD")"
NEW_CPU="$(cpu_of "$NEW")"
if [ -z "$OLD_CPU" ] || [ -z "$NEW_CPU" ] || [ "$OLD_CPU" != "$NEW_CPU" ]; then
	echo "bench_compare: CPU counts differ or are unrecorded: '$OLD' cpu=${OLD_CPU:-unrecorded}, '$NEW' cpu=${NEW_CPU:-unrecorded}." >&2
	echo "bench_compare: multi-worker rows clamp to GOMAXPROCS, so their numbers are not comparable;" >&2
	echo "bench_compare: record both files with scripts/bench_smoke.sh, which pins the count." >&2
	exit 2
fi

# The JSON is one benchmark object per line (bench_smoke.sh's own output
# format), so awk can parse it without jq.
awk -v warn_pct="$WARN_PCT" -v fail_pct="$FAIL_PCT" -v oldfile="$OLD" -v newfile="$NEW" '
function field(line, key,    re, s) {
	re = "\"" key "\": [-0-9.]+"
	if (match(line, re) == 0) return "null"
	s = substr(line, RSTART, RLENGTH)
	sub(/.*: /, "", s)
	return s
}
function name(line,    s) {
	if (match(line, /"name": "[^"]+"/) == 0) return ""
	s = substr(line, RSTART, RLENGTH)
	sub(/^"name": "/, "", s); sub(/"$/, "", s)
	return s
}
{
	n = name($0)
	if (n == "") next
	if (FILENAME == oldfile) {
		old_ns[n] = field($0, "ns_per_op")
		old_allocs[n] = field($0, "allocs_per_op")
		old_order[oc++] = n
	} else {
		new_ns[n] = field($0, "ns_per_op")
		new_allocs[n] = field($0, "allocs_per_op")
		new_order[nc++] = n
	}
}
END {
	printf "%-40s %12s %12s %8s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs/op old -> new"
	worst = 0; nfail_ns = 0; nfail_alloc = 0; nwarn = 0; ngone = 0; nnew = 0; nwin = 0
	for (i = 0; i < oc; i++) {
		n = old_order[i]
		if (!(n in new_ns)) { printf "%-40s %12s %12s %8s\n", n, old_ns[n], "-", "gone"; ngone++; continue }
		o = old_ns[n] + 0; w = new_ns[n] + 0
		delta = (o > 0) ? (w - o) * 100.0 / o : 0
		if (delta > worst) { worst = delta; worst_name = n }
		mark = ""
		if (old_allocs[n] != "null" && new_allocs[n] != "null" && new_allocs[n] + 0 > old_allocs[n] + 0) {
			adelta = (old_allocs[n] + 0 > 0) ? (new_allocs[n] - old_allocs[n]) * 100.0 / old_allocs[n] : 100
			# Multi-worker benchmarks allocate per-shard/per-steal state
			# whose count depends on scheduling, so their allocs/op moves a
			# few percent run to run even on identical code (PR4 already
			# notes that only scheduling-dependent counters may move).
			# Tolerate small moves there with a warning; single-worker and
			# sequential paths are deterministic and stay zero-tolerance.
			# Concurrent-client benchmarks (clients=N) are equally
			# scheduler-dependent: group-commit batch composition moves
			# with goroutine timing, so pool hits and per-batch state
			# shift a few percent between identical runs.
			# ReplicaCatchup pushes an HTTP stream between goroutines:
			# buffer reuse, socket internals, and frame batching all move
			# with scheduling, so its allocs/op is warn-only at any size.
			if (n ~ /ReplicaCatchup/) {
				mark = "  << alloc warn (network, +" sprintf("%.1f", adelta) "%)"
				warns[nwarn++] = sprintf("%s: allocs/op %s -> %s (+%.1f%%, network bench, warn-only)", n, old_allocs[n], new_allocs[n], adelta)
			} else if (n ~ /(workers=([2-9]|[0-9][0-9])|clients=[0-9]+)/ && adelta <= 5) {
				mark = "  << alloc warn (parallel, +" sprintf("%.1f", adelta) "%)"
				warns[nwarn++] = sprintf("%s: allocs/op %s -> %s (+%.1f%%, scheduler-dependent parallel bench)", n, old_allocs[n], new_allocs[n], adelta)
			} else {
				mark = "  << ALLOC REGRESSION"
				alloc_fail[nfail_alloc++] = sprintf("%s: allocs/op %s -> %s", n, old_allocs[n], new_allocs[n])
			}
		} else if (old_allocs[n] != "null" && new_allocs[n] != "null" && old_allocs[n] + 0 > 0 \
			&& (old_allocs[n] - new_allocs[n]) * 100.0 / old_allocs[n] > 50) {
			# Large allocs/op DROPS are flagged too, as informational wins:
			# a >50% improvement is a deliberate change worth surfacing in
			# the PR (and it resets the bar the next baseline will hold).
			wdelta = (old_allocs[n] - new_allocs[n]) * 100.0 / old_allocs[n]
			mark = sprintf("  << alloc win (-%.1f%%)", wdelta)
			wins[nwin++] = sprintf("%s: allocs/op %s -> %s (-%.1f%%)", n, old_allocs[n], new_allocs[n], wdelta)
		}
		if (delta > fail_pct && n ~ /fsync=always|ReplicaCatchup/) {
			# Disk-commit latency (fsync=always) or socket+scheduler
			# latency (ReplicaCatchup), not code: same-binary runs spread
			# widely, so ns/op is warn-only here.
			mark = mark "  << warn (fsync/network-bound)"
			warns[nwarn++] = sprintf("%s: ns/op %+.1f%% (fsync/network-bound, warn-only)", n, delta)
		} else if (delta > fail_pct) {
			mark = mark "  << FAIL"
			ns_fail[nfail_ns++] = sprintf("%s: ns/op %+.1f%% (threshold %s%%)", n, delta, fail_pct)
		} else if (delta > warn_pct) {
			mark = mark "  << warn"
			warns[nwarn++] = sprintf("%s: ns/op %+.1f%% (warn threshold %s%%)", n, delta, warn_pct)
		}
		printf "%-40s %12d %12d %+7.1f%%  %s -> %s%s\n", n, o, w, delta, old_allocs[n], new_allocs[n], mark
	}
	# Benchmarks only present on the new side are additions from this PR:
	# print them in file order WITH their measured values (ns/op and
	# allocs/op), so a new suite shows up in the delta table as real
	# numbers instead of vanishing into a skip count.
	for (i = 0; i < nc; i++) {
		n = new_order[i]
		if (n in old_ns) continue
		printf "%-40s %12s %12d %8s  -> %s\n", n, "-", new_ns[n] + 0, "new", new_allocs[n]
		nnew++
	}

	for (i = 0; i < nwin; i++) printf "::notice::benchmark improvement: %s\n", wins[i]
	for (i = 0; i < nwarn; i++) printf "::warning::benchmark regression: %s\n", warns[i]
	failed = 0
	for (i = 0; i < nfail_ns; i++) { printf "\nFAIL: %s\n", ns_fail[i]; failed = 1 }
	for (i = 0; i < nfail_alloc; i++) { printf "\nFAIL: %s\n", alloc_fail[i]; failed = 1 }
	if (failed) exit 1
	printf "\nOK: worst ns/op delta %+.1f%% (warn >%s%%, fail >%s%% or any alloc increase); %d warning(s); %d alloc win(s); skipped %d new / %d gone\n", worst, warn_pct, fail_pct, nwarn, nwin, nnew, ngone
}
' "$OLD" "$NEW"
