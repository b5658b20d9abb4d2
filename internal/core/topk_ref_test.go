package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/seq"
)

// topkReference is the best-first top-k search as first written: a popped
// node grows every child at once to learn its exact support, and the heap
// is keyed by exact supports only. Sequential, and kept only as the
// oracle the lazy search (children wait in the frontier at their support
// bound) must reproduce byte for byte at any worker count.
func topkReference(ctx context.Context, ix *seq.Index, k int, closed bool, maxLen int) *Result {
	m := newMiner(ix, Options{MinSupport: 1, Closed: closed})
	if ctxDone(ctx) {
		m.res.Stats.Truncated = true
		return m.res
	}
	f := &topkFrontier{}
	for _, e := range ix.FrequentEvents(1) {
		f.pushChild(nil, e, ix.SingletonSupport(e), false)
	}
	for f.len() > 0 && m.res.NumPatterns < k {
		n := f.pop()
		pattern := f.reconstruct(n)
		if topkReferenceVisit(m, f, n, pattern, closed, maxLen) {
			m.res.NumPatterns++
			m.res.Patterns = append(m.res.Patterns, Pattern{Events: append([]seq.EventID(nil), pattern...), Support: int(n.sup)})
		}
		f.recycle(n)
	}
	return m.res
}

// topkReferenceVisit re-grows n's prefix chain, runs the closure check and
// pushes every child with its exact support.
func topkReferenceVisit(m *miner, f *topkFrontier, n *topkNode, pattern []seq.EventID, closed bool, maxLen int) bool {
	m.pattern = append(m.pattern[:0], pattern...)
	cur := appendSingleton(m.getSet(m.ix.SingletonSupport(pattern[0])), m.ix, pattern[0])
	m.chain = append(m.chain[:0], cur)
	for j := 1; j < len(pattern); j++ {
		if closed {
			m.candStack = append(m.candStack, m.candidates(cur))
		}
		cur = appendGrow(m.getSet(len(cur)), m.ix, cur, pattern[j])
		m.chain = append(m.chain, cur)
	}
	I := cur
	memoMark := len(m.memoLog)
	emit := true
	if closed {
		if equal, _ := m.checkNonAppend(I); equal {
			emit = false
		}
	}
	atCap := maxLen > 0 && len(pattern) >= maxLen
	cands := m.candidates(I)
	for _, e := range cands {
		I2 := appendGrow(m.getSet(len(I)), m.ix, I, e)
		if closed && len(I2) == len(I) {
			emit = false
		}
		if !atCap && len(I2) > 0 {
			f.pushChild(n, e, len(I2), false)
		}
		m.putSet(I2)
	}
	m.putCands(cands)
	m.memoRevert(memoMark)
	m.releaseChain()
	return emit
}

// topkOutcome is what the search promises: patterns, supports, order and
// the truncation mark.
type topkOutcome struct {
	Patterns  []Pattern
	Truncated bool
}

func outcomeOf(r *Result) topkOutcome {
	o := topkOutcome{Patterns: r.Patterns, Truncated: r.Stats.Truncated}
	if len(o.Patterns) == 0 {
		o.Patterns = nil // the sharded merge returns an empty slice, not nil
	}
	return o
}

// checkTopKAgainstReference runs the lazy search at every worker count and
// compares it with topkReference.
func checkTopKAgainstReference(t *testing.T, name string, ix *seq.Index, ks []int) {
	t.Helper()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{context.Background(), cancelled} {
		for _, k := range ks {
			for _, closed := range []bool{false, true} {
				for _, maxLen := range []int{0, 2} {
					want := outcomeOf(topkReference(ctx, ix, k, closed, maxLen))
					for _, w := range []int{1, 2, 4, 8} {
						res, err := MineTopKParallel(ctx, ix, k, closed, maxLen, w)
						if err != nil {
							t.Fatal(err)
						}
						if got := outcomeOf(res); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s k=%d closed=%v maxLen=%d workers=%d cancelled=%v:\n got %v\nwant %v",
								name, k, closed, maxLen, w, ctx.Err() != nil, got, want)
						}
					}
				}
			}
		}
	}
}

// TestTopKMatchesReference: the lazy top-k search equals the eager
// reference in patterns, supports, order and Truncated, on Quest
// D1C20N1S20 and on random databases, for k 1 to 1000, closed and all,
// workers 1 to 8, maxLen 0 and 2, and a pre-cancelled context.
func TestTopKMatchesReference(t *testing.T) {
	defer SetMaxProcsForTest(8)()
	ks := []int{1, 10, 100, 1000}
	db, err := datagen.Quest(datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkTopKAgainstReference(t, "quest", seq.NewIndexWith(db, seq.IndexOptions{FastNext: true}), ks)

	r := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		db := seq.NewDB()
		alpha := 2 + r.Intn(4)
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			ev := make([]string, r.Intn(16))
			for j := range ev {
				ev[j] = string(rune('A' + r.Intn(alpha)))
			}
			db.Add("", ev)
		}
		checkTopKAgainstReference(t, fmt.Sprintf("random#%d", trial), seq.NewIndex(db), ks)
	}
}

// TestTopKBoundOnlyTie: a bound-only node whose key ties an exact node's
// support, whose pattern is lexically earlier, and whose exact support is
// lower must not be emitted ahead of the exact node. In "BAAB", A and B
// have support 2; A's children AA and AB wait at bound 2 (two A
// instances, two As and two Bs) but have support 1, and both sort before
// B (A is interned first, so it has the smaller ID). Visiting either
// before re-checking its key would emit it as the second pattern.
func TestTopKBoundOnlyTie(t *testing.T) {
	defer SetMaxProcsForTest(8)()
	db := seq.NewDB()
	db.Dict.Intern("A")
	db.AddChars("", "BAAB")
	ix := seq.NewIndex(db)
	a, b := db.Dict.Lookup("A"), db.Dict.Lookup("B")
	want := []Pattern{{Events: []seq.EventID{a}, Support: 2}, {Events: []seq.EventID{b}, Support: 2}}
	for _, w := range []int{1, 2, 4, 8} {
		res, err := MineTopKParallel(context.Background(), ix, 2, false, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Patterns, want) {
			t.Fatalf("workers=%d: top-2 = %v, want %v", w, res.Patterns, want)
		}
	}
	if ref := topkReference(context.Background(), ix, 2, false, 0); !reflect.DeepEqual(ref.Patterns, want) {
		t.Fatalf("reference top-2 = %v, want %v", ref.Patterns, want)
	}
	checkTopKAgainstReference(t, "BAAB", ix, []int{1, 2, 3, 10})
}
