package core

import (
	"testing"

	"repro/internal/seq"
)

// newTestMiner builds a miner positioned at a given pattern with its chain
// of prefix support sets, the way the DFS would have it.
func newTestMiner(t *testing.T, db *seq.DB, pattern string) *miner {
	t.Helper()
	return newTestMinerOpt(t, db, pattern, Options{MinSupport: 1})
}

// newTestMinerOpt is newTestMiner for a miner running under opt.
func newTestMinerOpt(t *testing.T, db *seq.DB, pattern string, opt Options) *miner {
	t.Helper()
	ix := seq.NewIndex(db)
	m := newMiner(ix, opt)
	p := pat(t, db, pattern)
	for j := range p {
		m.pattern = append(m.pattern, p[j])
		if j == 0 {
			m.chain = append(m.chain, singletonSet(ix, p[0]))
		} else {
			m.chain = append(m.chain, insGrow(ix, m.chain[j-1], p[j]))
		}
		if j < len(p)-1 {
			m.candStack = append(m.candStack, m.candidates(m.chain[j]))
		}
	}
	return m
}

func eventNames(db *seq.DB, ids []seq.EventID) string {
	out := ""
	for _, e := range ids {
		out += db.Dict.Name(e)
	}
	return out
}

func TestCandidatesTable3(t *testing.T) {
	db := table3DB()
	m := newTestMiner(t, db, "A")
	// Support set of A touches both sequences with firstLast = 1 in each;
	// every event occurs after position 1 somewhere, so all four events
	// are candidates.
	got := m.candidates(m.chain[0])
	if eventNames(db, got) != "ABCD" {
		t.Errorf("candidates(A) = %s, want ABCD", eventNames(db, got))
	}

	// For ACB (leftmost set ends at 6, 9, 4): S1 run starts at instance
	// ending 6, so S1 contributes events occurring after 6 = {B, D}; S2's
	// run starts at 4, contributing events after 4 = {A, C, D}.
	m3 := newTestMiner(t, db, "ACB")
	got3 := m3.candidates(m3.chain[2])
	if eventNames(db, got3) != "ABCD" {
		t.Errorf("candidates(ACB) = %s, want ABCD", eventNames(db, got3))
	}

	// A pattern whose instances end at the very last positions has no
	// candidates: pattern ACADD ends S2 at 9... build an exhausted case:
	db2 := seq.NewDB()
	db2.AddChars("", "AB")
	m4 := newTestMiner(t, db2, "AB")
	if got := m4.candidates(m4.chain[1]); len(got) != 0 {
		t.Errorf("candidates at sequence end = %v, want none", got)
	}
}

func TestCandidatesSound(t *testing.T) {
	// Every event that actually extends some instance must be in the
	// candidate list (soundness of the filter w.r.t. the DFS).
	db := table3DB()
	for _, pattern := range []string{"A", "AC", "AB", "AA", "ACB", "D"} {
		m := newTestMiner(t, db, pattern)
		I := m.chain[len(m.chain)-1]
		cands := map[seq.EventID]bool{}
		for _, e := range m.candidates(I) {
			cands[e] = true
		}
		for e := seq.EventID(0); int(e) < db.Dict.Size(); e++ {
			if len(insGrow(m.ix, I, e)) > 0 && !cands[e] {
				t.Errorf("pattern %s: event %s extends an instance but is not a candidate",
					pattern, db.Dict.Name(e))
			}
		}
	}
}

// boundDB is the fixture of the support-bound tests: D follows A, B and
// C once in S1 and never in S2, so its per-sequence bound is 1 at every
// node and min_sup 2 drops it from every candidate list.
func boundDB() *seq.DB {
	db := seq.NewDB()
	db.AddChars("S1", "ABCD")
	db.AddChars("S2", "ABC")
	return db
}

// TestCandidatesBound: the bound drops D (Σᵢ min(|Iᵢ|, countᵢ(D)) = 1 <
// 2) and reports the kept events' sums; at min_sup 1 nothing is dropped.
func TestCandidatesBound(t *testing.T) {
	db := boundDB()
	ix := seq.NewIndex(db)
	I := singletonSet(ix, pat(t, db, "A")[0])
	cands, bounds := newMiner(ix, Options{MinSupport: 2}).candidateBounds(I)
	if eventNames(db, cands) != "BC" || len(bounds) != 2 || bounds[0] != 2 || bounds[1] != 2 {
		t.Errorf("candidateBounds(A) at min_sup 2 = %s %v, want BC [2 2]", eventNames(db, cands), bounds)
	}
	cands, bounds = newMiner(ix, Options{MinSupport: 1}).candidateBounds(I)
	if eventNames(db, cands) != "BCD" || bounds[2] != 1 {
		t.Errorf("candidateBounds(A) at min_sup 1 = %s %v, want BCD [2 2 1]", eventNames(db, cands), bounds)
	}
	// A strategy outside candidateFloor's list (gapped, or any other
	// wrapper) keeps every event, even when its nodes behave repetitively.
	if got := candidateFloor(Options{MinSupport: 2, Semantics: wrappedSemantics{Repetitive}}); got != 0 {
		t.Errorf("candidateFloor(wrapped) = %d, want 0", got)
	}
}

type wrappedSemantics struct{ Semantics }

// TestINSgrowCallsPinned pins the instance-growth count on boundDB at
// min_sup 2, counted by hand; losing the bound raises both counts.
//
// All patterns: A grows B and C (D dropped), AB grows C, ABC and AC list
// only D, B grows C, BC and C list only D: 4 growths (11 unbounded).
// Closed: A grows B and C, AB grows C, ABC lists only D; AC, B and C are
// pruned by the landmark border (ABC, AB and AC keep their last
// landmarks): 3 growths (6 unbounded).
func TestINSgrowCallsPinned(t *testing.T) {
	ix := seq.NewIndex(boundDB())
	for _, tc := range []struct {
		closed   bool
		patterns int
		growths  int
	}{{false, 7, 4}, {true, 1, 3}} {
		for _, w := range []int{1, 2} {
			res, err := MineParallel(ix, Options{MinSupport: 2, Closed: tc.closed}, w)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumPatterns != tc.patterns || res.Stats.INSgrowCalls != tc.growths {
				t.Errorf("closed=%v workers=%d: %d patterns, %d INSgrowCalls; want %d, %d",
					tc.closed, w, res.NumPatterns, res.Stats.INSgrowCalls, tc.patterns, tc.growths)
			}
		}
	}
}

// TestClosedInsertionThroughBoundedList: closure checking finds the
// equal-support insertion ABC of AC through the bounded candidate list
// cached at prefix A (which lacks D), so AC is not reported closed and
// the closed set equals the definition's.
func TestClosedInsertionThroughBoundedList(t *testing.T) {
	db := boundDB()
	ix := seq.NewIndex(db)
	m := newTestMinerOpt(t, db, "AC", Options{MinSupport: 2, Closed: true})
	if got := eventNames(db, m.candStack[0]); got != "BC" {
		t.Fatalf("cached candidates at A = %s, want BC", got)
	}
	if equal, prune := m.checkNonAppend(m.chain[1]); !equal || !prune {
		t.Errorf("checkNonAppend(AC) = %v, %v; want the equal-support insertion ABC and a border prune", equal, prune)
	}
	for _, noLB := range []bool{false, true} {
		res := mustMine(t, ix, Options{MinSupport: 2, Closed: true, DisableLBCheck: noLB})
		if got := patternSet(db, res); len(got) != 1 || got["ABC"] != 2 {
			t.Errorf("DisableLBCheck=%v: closed patterns %v, want ABC:2", noLB, got)
		}
	}
}

func TestEligibleEventsFilter(t *testing.T) {
	db := table3DB()
	// Pattern B: 3 instances in S1, 1 in S2. Only B itself occurs >= 3
	// times in S1 (A:2, C:2, D:2), so only B survives the per-sequence
	// occurrence filter.
	m := newTestMiner(t, db, "B")
	seqs, perSeq := m.sequenceRunsOf(m.chain[0])
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 1 || perSeq[0] != 3 || perSeq[1] != 1 {
		t.Fatalf("sequenceRunsOf(B) = %v %v, want [0 1] [3 1]", seqs, perSeq)
	}
	if got := m.eligibleEvents(seqs, perSeq); eventNames(db, got) != "B" {
		t.Errorf("eligibleEvents(B) = %s, want B", eventNames(db, got))
	}
	// Pattern A: 2 instances in S1, 3 in S2. Needs count >= 2 in S1 and
	// >= 3 in S2: A (2,3) and D (2,3) qualify; B (3,1) and C (2,2) fail
	// the S2 requirement.
	mA := newTestMiner(t, db, "A")
	seqsA, perSeqA := mA.sequenceRunsOf(mA.chain[0])
	if got := mA.eligibleEvents(seqsA, perSeqA); eventNames(db, got) != "AD" {
		t.Errorf("eligibleEvents(A) = %s, want AD", eventNames(db, got))
	}
}

// TestEligibleEventsSound: an event outside eligibleEvents can never form
// an equal-support insertion or prepend extension — the property closure
// checking relies on to skip those chains entirely.
func TestEligibleEventsSound(t *testing.T) {
	db := table3DB()
	ix := seq.NewIndex(db)
	for _, pattern := range []string{"A", "B", "AB", "AC", "ACB", "AA", "DD"} {
		m := newTestMiner(t, db, pattern)
		p := pat(t, db, pattern)
		I := m.chain[len(m.chain)-1]
		s := len(I)
		seqs, perSeq := m.sequenceRunsOf(I)
		elig := map[seq.EventID]bool{}
		for _, e := range m.eligibleEvents(seqs, perSeq) {
			elig[e] = true
		}
		for e := seq.EventID(0); int(e) < db.Dict.Size(); e++ {
			if elig[e] {
				continue
			}
			for g := 0; g <= len(p); g++ {
				super := make([]seq.EventID, 0, len(p)+1)
				super = append(super, p[:g]...)
				super = append(super, e)
				super = append(super, p[g:]...)
				if got := SupportOf(ix, super); got >= s {
					t.Errorf("pattern %s: non-eligible %s at gap %d has support %d >= %d",
						pattern, db.Dict.Name(e), g, got, s)
				}
			}
		}
	}
}

func TestInsertionCandidatesIntersect(t *testing.T) {
	db := table3DB()
	m := newTestMiner(t, db, "AB") // chain: A, AB; candStack: cands(A)
	seqs, perSeq := m.sequenceRunsOf(m.chain[1])
	elig := m.eligibleEvents(seqs, perSeq)
	// AB has 2 instances in S1 and 1 in S2; every event of Table 3 meets
	// those occurrence floors, and every event extends an instance of A,
	// so the intersection keeps all four.
	got := append([]seq.EventID(nil), m.insertionCandidates(1, elig)...)
	if eventNames(db, got) != "ABCD" {
		t.Errorf("insertionCandidates(AB, gap 1) = %s, want ABCD", eventNames(db, got))
	}
	// The result is the sorted intersection of elig and candStack[0].
	if got := m.insertionCandidates(1, nil); len(got) != 0 {
		t.Errorf("empty eligibility must yield no candidates, got %v", got)
	}
	restricted := []seq.EventID{pat(t, db, "A")[0], pat(t, db, "D")[0]}
	if got := m.insertionCandidates(1, restricted); eventNames(db, got) != "AD" {
		t.Errorf("restricted intersection = %s, want AD", eventNames(db, got))
	}
}

// TestDeterministicOutput: two mining runs over the same database produce
// identical pattern lists, and GSgrow's preorder is the lexicographic
// order over event IDs.
func TestDeterministicOutput(t *testing.T) {
	db := table3DB()
	ix := seq.NewIndex(db)
	a, err := Mine(ix, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(ix, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("non-deterministic pattern count: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	for k := range a.Patterns {
		if db.PatternString(a.Patterns[k].Events) != db.PatternString(b.Patterns[k].Events) {
			t.Fatalf("non-deterministic order at %d", k)
		}
	}
	for k := 1; k < len(a.Patterns); k++ {
		if !lessEvents(a.Patterns[k-1].Events, a.Patterns[k].Events) {
			t.Fatalf("GSgrow emission not in DFS preorder at %d: %s !< %s", k,
				db.PatternString(a.Patterns[k-1].Events), db.PatternString(a.Patterns[k].Events))
		}
	}
}

// TestUniformSequenceClosure: on S = A^n, the instances of A^k are the
// shifted windows (i, i+1, ..., i+k-1), pairwise non-overlapping under
// Definition 2.3 (they differ at every pattern index), so
// sup(A^k) = n-k+1 — strictly decreasing in k, which makes EVERY A^k
// closed. A sharp degenerate-case check of both support computation and
// closure logic.
func TestUniformSequenceClosure(t *testing.T) {
	const n = 60
	db := seq.NewDB()
	uniform := make([]byte, n)
	for i := range uniform {
		uniform[i] = 'A'
	}
	db.AddChars("", string(uniform))
	ix := seq.NewIndex(db)

	res, err := Mine(ix, Options{MinSupport: 1, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	closedLens := map[int]int{}
	for _, p := range res.Patterns {
		closedLens[len(p.Events)] = p.Support
	}
	if len(closedLens) != n {
		t.Errorf("%d closed lengths, want %d (every A^k is closed)", len(closedLens), n)
	}
	for k := 1; k <= n; k++ {
		sup, ok := closedLens[k]
		if !ok {
			t.Errorf("A^%d missing from closed result", k)
			continue
		}
		if sup != n-k+1 {
			t.Errorf("A^%d: support %d, want %d", k, sup, n-k+1)
		}
	}
	// Cross-check the two smallest cases against the flow oracle's logic:
	// shifted windows really are non-overlapping instances.
	set := ComputeSupportSet(ix, pat(t, db, "AA"))
	if len(set) != n-1 || !NonRedundant(set) {
		t.Errorf("support set of AA: %d instances, non-redundant=%v", len(set), NonRedundant(set))
	}
}

// TestAllDistinctSequence: with no repetition anywhere, every pattern has
// support 1, the only closed pattern is the full sequence, and GSgrow at
// min_sup=1 faces 2^n - 1 patterns (exercised via a budget).
func TestAllDistinctSequence(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("", "ABCDEFGHIJ")
	ix := seq.NewIndex(db)

	closed, err := Mine(ix, Options{MinSupport: 1, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(closed.Patterns) != 1 || len(closed.Patterns[0].Events) != 10 {
		t.Fatalf("closed patterns = %v, want just the full sequence", closed.Patterns)
	}
	// 2^10 - 1 = 1023 subsequences in total; a budget of 500 must truncate,
	// and an unbounded run must find exactly 1023.
	all, err := Mine(ix, Options{MinSupport: 1, DiscardPatterns: true, MaxPatterns: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !all.Stats.Truncated || all.NumPatterns != 500 {
		t.Errorf("budget run: %d patterns, truncated=%v", all.NumPatterns, all.Stats.Truncated)
	}
	unbounded, err := Mine(ix, Options{MinSupport: 1, DiscardPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.NumPatterns != 1023 {
		t.Errorf("unbounded run found %d patterns, want 1023", unbounded.NumPatterns)
	}
	// At min_sup=2 nothing is frequent.
	none, err := Mine(ix, Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	if none.NumPatterns != 0 {
		t.Errorf("min_sup=2 found %d patterns", none.NumPatterns)
	}
}
