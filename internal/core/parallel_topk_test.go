package core_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seq"
)

// TestPropertyParallelEqualsSequential: parallel mining produces exactly
// the sequential result (patterns, supports, order) for both algorithms.
func TestPropertyParallelEqualsSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		if db.Dict.Size() == 0 {
			return true
		}
		ix := seq.NewIndex(db)
		minSup := 1 + r.Intn(3)
		for _, closed := range []bool{false, true} {
			seqRes, err := core.Mine(ix, core.Options{MinSupport: minSup, Closed: closed})
			if err != nil {
				return false
			}
			parRes, err := core.MineParallel(ix, core.Options{MinSupport: minSup, Closed: closed}, 4)
			if err != nil {
				return false
			}
			if len(seqRes.Patterns) != len(parRes.Patterns) {
				t.Logf("seed=%d closed=%v: %d vs %d patterns", seed, closed, len(seqRes.Patterns), len(parRes.Patterns))
				return false
			}
			for i := range seqRes.Patterns {
				a, b := seqRes.Patterns[i], parRes.Patterns[i]
				if db.PatternString(a.Events) != db.PatternString(b.Events) || a.Support != b.Support {
					t.Logf("seed=%d closed=%v: pattern %d differs", seed, closed, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Error(err)
	}
}

func TestParallelOnRunningExample(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("S1", "ABCACBDDB")
	db.AddChars("S2", "ACDBACADD")
	ix := seq.NewIndex(db)
	res, err := core.MineParallel(ix, core.Options{MinSupport: 3, Closed: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range res.Patterns {
		got[db.PatternString(p.Events)] = p.Support
	}
	if got["ACB"] != 3 || got["ABD"] != 3 || got["ACAD"] != 3 {
		t.Errorf("closed set: %v", got)
	}
	if _, ok := got["AA"]; ok {
		t.Error("AA is not closed")
	}
	if res.Stats.LBPrunes == 0 {
		t.Error("merged stats lost LBPrunes")
	}
}

func TestParallelBudget(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("", "ABCDEFGHIJ")
	ix := seq.NewIndex(db)
	res, err := core.MineParallel(ix, core.Options{MinSupport: 1, MaxPatterns: 100}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPatterns != 100 {
		t.Errorf("NumPatterns = %d, want exactly 100", res.NumPatterns)
	}
	if !res.Stats.Truncated {
		t.Error("Truncated not set")
	}
	// The budget is deterministic: exactly the sequential run's first 100
	// patterns, which for GSgrow (pre-order DFS over sorted candidates) is
	// the lexicographic prefix of the pattern space.
	seqRes, err := core.Mine(ix, core.Options{MinSupport: 1, MaxPatterns: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Patterns) != len(res.Patterns) {
		t.Fatalf("sequential prefix has %d patterns, parallel %d", len(seqRes.Patterns), len(res.Patterns))
	}
	for i := range res.Patterns {
		if db.PatternString(res.Patterns[i].Events) != db.PatternString(seqRes.Patterns[i].Events) {
			t.Fatalf("budget pattern %d: %s vs sequential %s", i,
				db.PatternString(res.Patterns[i].Events), db.PatternString(seqRes.Patterns[i].Events))
		}
	}
}

func TestParallelCallbackStop(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("", "ABCDEFGHIJ")
	ix := seq.NewIndex(db)
	count := 0
	res, err := core.MineParallel(ix, core.Options{
		MinSupport: 1,
		OnPattern: func(core.Pattern) bool {
			count++
			return count < 10
		},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Error("callback stop did not set Truncated")
	}
	// The stop flag propagates with some slack (workers finish their
	// current emission), but the run must stop well short of the full
	// 1023 patterns.
	if res.NumPatterns > 50 {
		t.Errorf("stopped run still emitted %d patterns", res.NumPatterns)
	}
}

func TestParallelWorkerCountFallback(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("", "ABAB")
	ix := seq.NewIndex(db)
	for _, w := range []int{0, 1} {
		res, err := core.MineParallel(ix, core.Options{MinSupport: 1}, w)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumPatterns == 0 {
			t.Errorf("workers=%d: no patterns", w)
		}
	}
	if _, err := core.MineParallel(ix, core.Options{MinSupport: 0}, 4); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestPropertyTopKMatchesFullMine: the top-k result equals the k best
// supports of a full mine (compared as support multisets, since ties may
// be resolved either way... the implementation breaks ties
// lexicographically, so exact comparison is possible after sorting the
// full result the same way).
func TestPropertyTopKMatchesFullMine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		if db.Dict.Size() == 0 {
			return true
		}
		ix := seq.NewIndex(db)
		const maxLen = 4
		k := 1 + r.Intn(8)
		for _, closed := range []bool{false, true} {
			top, err := core.MineTopKParallel(context.Background(), ix, k, closed, maxLen, 1)
			if err != nil {
				return false
			}
			full, err := core.Mine(ix, core.Options{MinSupport: 1, Closed: closed, MaxPatternLength: maxLen})
			if err != nil {
				return false
			}
			want := len(full.Patterns)
			if want > k {
				want = k
			}
			if len(top.Patterns) != want {
				t.Logf("seed=%d closed=%v: top-k returned %d, want %d", seed, closed, len(top.Patterns), want)
				return false
			}
			// Supports must be non-increasing and match the k best.
			supports := make([]int, 0, len(full.Patterns))
			for _, p := range full.Patterns {
				supports = append(supports, p.Support)
			}
			sortDesc(supports)
			for i, p := range top.Patterns {
				if i > 0 && top.Patterns[i-1].Support < p.Support {
					t.Logf("seed=%d: top-k not sorted by support", seed)
					return false
				}
				if p.Support != supports[i] {
					t.Logf("seed=%d closed=%v: rank %d support %d, want %d", seed, closed, i, p.Support, supports[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(100)); err != nil {
		t.Error(err)
	}
}

func sortDesc(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] < v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

func TestTopKRunningExample(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("S1", "ABCACBDDB")
	db.AddChars("S2", "ACDBACADD")
	ix := seq.NewIndex(db)
	top, err := core.MineTopKParallel(context.Background(), ix, 2, false, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Highest supports: A, AD, D all have support 5; the lexicographic
	// tie-break yields A then AD.
	if len(top.Patterns) != 2 {
		t.Fatalf("got %d patterns", len(top.Patterns))
	}
	if db.PatternString(top.Patterns[0].Events) != "A" || top.Patterns[0].Support != 5 {
		t.Errorf("first = %s/%d", db.PatternString(top.Patterns[0].Events), top.Patterns[0].Support)
	}
	if db.PatternString(top.Patterns[1].Events) != "AD" || top.Patterns[1].Support != 5 {
		t.Errorf("second = %s/%d", db.PatternString(top.Patterns[1].Events), top.Patterns[1].Support)
	}
	if _, err := core.MineTopKParallel(context.Background(), ix, 0, false, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestTopKClosedRunningExample(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("S1", "ABCACBDDB")
	db.AddChars("S2", "ACDBACADD")
	ix := seq.NewIndex(db)
	top, err := core.MineTopKParallel(context.Background(), ix, 3, true, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Closed top-3 by support: AD (5), ACD (4), B (4).
	want := []struct {
		p string
		s int
	}{{"AD", 5}, {"ACD", 4}, {"B", 4}}
	for i, w := range want {
		if i >= len(top.Patterns) {
			t.Fatalf("only %d patterns", len(top.Patterns))
		}
		got := db.PatternString(top.Patterns[i].Events)
		if got != w.p || top.Patterns[i].Support != w.s {
			t.Errorf("rank %d: %s/%d, want %s/%d", i, got, top.Patterns[i].Support, w.p, w.s)
		}
	}
}
