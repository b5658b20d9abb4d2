package core_test

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/verify"
)

// TestCandidatesBoundSound checks the per-sequence support bound of the
// candidate lists against the max-flow oracle: every event the bound drops
// has sup(P∘e) < MinSupport, every kept event's bound is at least
// sup(P∘e), and the bounded list is the unbounded one minus the dropped
// events.
func TestCandidatesBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		if db.Dict.Size() == 0 {
			return true
		}
		ix := seq.NewIndex(db)
		minSup := 1 + r.Intn(4)
		for trial := 0; trial < 6; trial++ {
			p := randomPattern(r, db, 3)
			if verify.Support(db, p) == 0 {
				continue
			}
			all, allBounds := core.CandidateBoundsForTest(ix, core.Options{MinSupport: 1}, p)
			kept, bounds := core.CandidateBoundsForTest(ix, core.Options{MinSupport: minSup}, p)
			listed := map[seq.EventID]int32{}
			for i, e := range kept {
				listed[e] = bounds[i]
			}
			k := 0
			for i, e := range all {
				if allBounds[i] >= int32(minSup) {
					if k >= len(kept) || kept[k] != e || bounds[k] != allBounds[i] {
						t.Logf("seed=%d %s minsup=%d: bounded list %v is not %v filtered at the floor", seed, db.PatternString(p), minSup, kept, all)
						return false
					}
					k++
				}
			}
			if k != len(kept) {
				t.Logf("seed=%d: bounded list has events the unbounded one lacks", seed)
				return false
			}
			for e := seq.EventID(0); int(e) < db.Dict.Size(); e++ {
				sup := verify.Support(db, append(append([]seq.EventID(nil), p...), e))
				b, ok := listed[e]
				if !ok && sup >= minSup {
					t.Logf("seed=%d %s minsup=%d: dropped %s although sup=%d", seed, db.PatternString(p), minSup, db.Dict.Name(e), sup)
					return false
				}
				if ok && int(b) < sup {
					t.Logf("seed=%d %s: bound %d of %s below sup=%d", seed, db.PatternString(p), b, db.Dict.Name(e), sup)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(150)); err != nil {
		t.Error(err)
	}
}

// TestTopKWorkersMatchOracle: top-k at workers 1, 2, 4 and 8 returns the
// same bytes as the sequential search, and that result is the prefix of
// the oracle's threshold mine ranked by (support desc, pattern lex asc).
// The parallel search prunes children with the per-sequence bound, so this
// sweep guards the bound's use as the top-k upper bound.
func TestTopKWorkersMatchOracle(t *testing.T) {
	defer core.SetMaxProcsForTest(8)()
	const maxLen = 4
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := randomDB(r)
		if db.Dict.Size() == 0 {
			return true
		}
		ix := seq.NewIndex(db)
		k := 1 + r.Intn(10)
		for _, closed := range []bool{false, true} {
			want := verify.Frequent(db, 1, maxLen)
			if closed {
				want = verify.Closed(db, 1, maxLen)
			}
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].Support != want[j].Support {
					return want[i].Support > want[j].Support
				}
				return lexLess(want[i].Pattern, want[j].Pattern)
			})
			want = want[:min(k, len(want))]
			var ref string
			for _, w := range []int{1, 2, 4, 8} {
				top, err := core.MineTopKParallel(context.Background(), ix, k, closed, maxLen, w)
				if err != nil {
					t.Logf("seed=%d: %v", seed, err)
					return false
				}
				got := patternList(db, top)
				if w == 1 {
					ref = got
					if got != oracleList(db, want) {
						t.Logf("seed=%d closed=%v k=%d: top-k\n%s\nis not the oracle's prefix\n%s", seed, closed, k, got, oracleList(db, want))
						return false
					}
				} else if got != ref {
					t.Logf("seed=%d closed=%v k=%d workers=%d:\n%s\nwant\n%s", seed, closed, k, w, got, ref)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(60)); err != nil {
		t.Error(err)
	}
}

func lexLess(a, b []seq.EventID) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// oracleList renders oracle patterns in patternList's format.
func oracleList(db *seq.DB, ps []verify.PatternSupport) string {
	res := &core.Result{NumPatterns: len(ps)}
	for _, p := range ps {
		res.Patterns = append(res.Patterns, core.Pattern{Events: p.Pattern, Support: p.Support})
	}
	return patternList(db, res)
}
