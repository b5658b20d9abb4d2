package core_test

// Work-stealing scheduler tests: steal-heavy stress, deterministic
// MaxPatterns budgets, and byte-identical parallel top-k. The broad
// parallel-vs-sequential parity sweeps live in fastpath_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/seq"
)

// skewedDB builds a database whose mining work is concentrated in a
// handful of deep subtrees: few distinct events over long dense sequences,
// so at minsup 2 there are only 4 seed tasks but thousands of DFS nodes —
// with 8 workers, progress beyond the seeds REQUIRES mid-subtree donation.
func skewedDB() *seq.DB {
	r := rand.New(rand.NewSource(7))
	db := seq.NewDB()
	alphabet := []string{"A", "B", "C", "D"}
	for i := 0; i < 2; i++ {
		events := make([]string, 32)
		for j := range events {
			events[j] = alphabet[r.Intn(len(alphabet))]
		}
		db.Add("", events)
	}
	return db
}

// TestStealHeavyStress: on the skewed workload, parallel mining stays
// byte-identical to the sequential run while branches actually migrate
// between workers. Donation depends on observing an idle peer, so the
// steal assertion is over several runs; parity must hold on every one.
// Runs under -race with -count=2 in CI.
func TestStealHeavyStress(t *testing.T) {
	db := skewedDB()
	ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
	for _, closed := range []bool{false, true} {
		opt := core.Options{MinSupport: 2, Closed: closed}
		ref, err := core.Mine(ix, opt)
		if err != nil {
			t.Fatal(err)
		}
		refList := patternList(db, ref)
		donated, stolen := 0, 0
		const runs = 5
		for i := 0; i < runs; i++ {
			res, err := core.MineParallel(ix, opt, 8)
			if err != nil {
				t.Fatal(err)
			}
			if got := patternList(db, res); got != refList {
				t.Fatalf("closed=%v run %d: steal-heavy parallel run diverged\nsequential:\n%s\nparallel:\n%s",
					closed, i, refList, got)
			}
			assertParallelStats(t, fmt.Sprintf("closed=%v run %d", closed, i), ref.Stats, res.Stats)
			donated += res.Stats.TasksDonated
			stolen += res.Stats.TasksStolen
		}
		// Stealing requires a worker to observe an idle peer, so a single
		// run on a loaded single-CPU host can legitimately see none; the
		// machinery is proven if any of the runs stole.
		if stolen == 0 {
			t.Errorf("closed=%v: no task was stolen across %d steal-heavy runs (8 workers over 4 seeds)", closed, runs)
		}
		if donated == 0 {
			t.Errorf("closed=%v: no branch was donated across %d steal-heavy runs", closed, runs)
		}
	}
}

// TestStealFullAlphabetAblation: the A1 ablation (full-alphabet
// candidate lists) keeps its counter contract under steals — a stolen
// closed task must rebuild its prefix candidate stack with the full
// alphabet, exactly what the sequential ablation run had, or the
// ablation's work counters become steal-timing-dependent.
func TestStealFullAlphabetAblation(t *testing.T) {
	db := skewedDB()
	ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
	opt := core.Options{MinSupport: 2, Closed: true, FullAlphabetCandidates: true}
	ref, err := core.Mine(ix, opt)
	if err != nil {
		t.Fatal(err)
	}
	refList := patternList(db, ref)
	for i := 0; i < 3; i++ {
		res, err := core.MineParallel(ix, opt, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := patternList(db, res); got != refList {
			t.Fatalf("run %d: full-alphabet parallel run diverged", i)
		}
		assertParallelStats(t, fmt.Sprintf("full-alphabet run %d", i), ref.Stats, res.Stats)
	}
}

// TestParallelBudgetMatchesSequentialPrefix: under Workers > 1 a
// MaxPatterns budget returns exactly the sequential run's first N patterns
// — same patterns, same supports, same order — for both miners, budgets
// below, at, and above the full result size.
func TestParallelBudgetMatchesSequentialPrefix(t *testing.T) {
	for name, db := range parityDBs(t) {
		ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
		for _, closed := range []bool{false, true} {
			minsup := 6
			full, err := core.Mine(ix, core.Options{MinSupport: minsup, Closed: closed})
			if err != nil {
				t.Fatal(err)
			}
			budgets := []int{1, 7, 50, full.NumPatterns, full.NumPatterns + 1000}
			for _, n := range budgets {
				if n < 1 {
					continue
				}
				opt := core.Options{MinSupport: minsup, Closed: closed, MaxPatterns: n}
				ref, err := core.Mine(ix, opt)
				if err != nil {
					t.Fatal(err)
				}
				refList := patternList(db, ref)
				for _, workers := range []int{2, 8} {
					res, err := core.MineParallel(ix, opt, workers)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s closed=%v budget=%d workers=%d", name, closed, n, workers)
					if got := patternList(db, res); got != refList {
						t.Errorf("%s: budget prefix diverged\nsequential:\n%s\nparallel:\n%s", label, refList, got)
					}
					if res.Stats.Truncated != ref.Stats.Truncated {
						t.Errorf("%s: Truncated = %v, sequential %v", label, res.Stats.Truncated, ref.Stats.Truncated)
					}
				}
			}
		}
	}
}

// TestParallelBudgetCountingOnly: the deterministic budget also holds when
// patterns are discarded (NumPatterns must match the sequential count).
func TestParallelBudgetCountingOnly(t *testing.T) {
	for _, db := range parityDBs(t) {
		ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
		opt := core.Options{MinSupport: 6, Closed: true, MaxPatterns: 9, DiscardPatterns: true}
		ref, err := core.Mine(ix, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.MineParallel(ix, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumPatterns != ref.NumPatterns || res.Stats.Truncated != ref.Stats.Truncated {
			t.Errorf("counting-only budget: got %d patterns (truncated=%v), sequential %d (truncated=%v)",
				res.NumPatterns, res.Stats.Truncated, ref.NumPatterns, ref.Stats.Truncated)
		}
		if len(res.Patterns) != 0 {
			t.Errorf("DiscardPatterns run materialized %d patterns", len(res.Patterns))
		}
	}
}

// TestParallelTopKByteIdentical: the sharded best-first search returns
// byte-identical results to the single-worker search for k in {1, 10, 100}
// on every fixture, both miners, any worker count.
func TestParallelTopKByteIdentical(t *testing.T) {
	for name, db := range parityDBs(t) {
		for _, fastNext := range []bool{false, true} {
			ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: fastNext})
			for _, closed := range []bool{false, true} {
				for _, maxLen := range []int{0, 3} {
					for _, k := range []int{1, 10, 100} {
						ref, err := core.MineTopKParallel(context.Background(), ix, k, closed, maxLen, 1)
						if err != nil {
							t.Fatal(err)
						}
						refList := patternList(db, ref)
						for _, workers := range []int{1, 2, 4, 8} {
							res, err := core.MineTopKParallel(nil, ix, k, closed, maxLen, workers)
							if err != nil {
								t.Fatal(err)
							}
							if got := patternList(db, res); got != refList {
								t.Errorf("%s fastNext=%v closed=%v maxLen=%d k=%d workers=%d: top-k diverged\nsequential:\n%s\nparallel:\n%s",
									name, fastNext, closed, maxLen, k, workers, refList, got)
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelTopKRandomized: property check on random databases — the
// parallel top-k equals the sequential one exactly.
func TestParallelTopKRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(r)
		if db.Dict.Size() == 0 {
			continue
		}
		ix := seq.NewIndex(db)
		k := 1 + r.Intn(12)
		closed := trial%2 == 0
		ref, err := core.MineTopKParallel(context.Background(), ix, k, closed, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.MineTopKParallel(nil, ix, k, closed, 4, 1+r.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := patternList(db, res), patternList(db, ref); got != want {
			t.Fatalf("trial %d (k=%d closed=%v): parallel top-k diverged\nsequential:\n%s\nparallel:\n%s",
				trial, k, closed, want, got)
		}
	}
}
