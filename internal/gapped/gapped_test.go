package gapped

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/seq"
)

func mkDB(seqs ...string) *seq.DB {
	db := seq.NewDB()
	for _, s := range seqs {
		db.AddChars("", s)
	}
	return db
}

func mkPat(db *seq.DB, s string) []seq.EventID {
	out := make([]seq.EventID, len(s))
	for i := range s {
		out[i] = db.Dict.Intern(string(s[i]))
	}
	return out
}

// support is Support over a fresh index of db.
func support(db *seq.DB, pattern []seq.EventID, minGap, maxGap int) (int, error) {
	return Support(seq.NewIndex(db), pattern, minGap, maxGap)
}

// bruteGapSupport enumerates gap-valid landmarks per sequence and finds the
// maximum non-overlapping subset by backtracking — the independent oracle.
func bruteGapSupport(db *seq.DB, pattern []seq.EventID, minGap, maxGap int) int {
	total := 0
	for i := range db.Seqs {
		lands := enumGapLandmarks(db.Seqs[i], pattern, minGap, maxGap)
		total += maxNonOverlapping(lands)
	}
	return total
}

func enumGapLandmarks(s seq.Sequence, pattern []seq.EventID, minGap, maxGap int) [][]int32 {
	var out [][]int32
	land := make([]int32, 0, len(pattern))
	var rec func(j int, prev int32)
	rec = func(j int, prev int32) {
		if j == len(pattern) {
			out = append(out, append([]int32(nil), land...))
			return
		}
		for p := 1; p <= len(s); p++ {
			if s.At(p) != pattern[j] {
				continue
			}
			if j > 0 {
				gap := p - int(prev) - 1
				if gap < minGap || gap > maxGap {
					continue
				}
			}
			land = append(land, int32(p))
			rec(j+1, int32(p))
			land = land[:len(land)-1]
		}
	}
	rec(0, 0)
	return out
}

func maxNonOverlapping(lands [][]int32) int {
	best := 0
	var chosen []int
	conflicts := func(a, b []int32) bool {
		for j := range a {
			if a[j] == b[j] {
				return true
			}
		}
		return false
	}
	var rec func(k int)
	rec = func(k int) {
		if len(chosen) > best {
			best = len(chosen)
		}
		if k == len(lands) || len(chosen)+(len(lands)-k) <= best {
			return
		}
		ok := true
		for _, c := range chosen {
			if conflicts(lands[c], lands[k]) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, k)
			rec(k + 1)
			chosen = chosen[:len(chosen)-1]
		}
		rec(k + 1)
	}
	rec(0)
	return best
}

func TestGreedyWouldFail(t *testing.T) {
	// In AAB with MaxGap = 0, the leftmost A cannot reach B; the correct
	// support is 1 (greedy leftmost growth from A1 would find 0 for the
	// chain through A1, which is why this package uses max flow).
	db := mkDB("AAB")
	got, err := support(db, mkPat(db, "AB"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("sup(AB | gap=0) in AAB = %d, want 1", got)
	}
}

func TestSupportGoldValues(t *testing.T) {
	cases := []struct {
		seqs           []string
		pattern        string
		minGap, maxGap int
		want           int
	}{
		// Zhang-style example from the paper: AB with gap in [0,3] in
		// AABCDABB has 4 occurrences but only 3 are pairwise
		// non-overlapping ((1,3),(2,?),... A at 1,2,6; B at 3,7,8; valid
		// pairs: (1,3),(2,3),(2,7)? gap(2,7)=4 no. (6,7),(6,8). Max
		// matching with distinct As and Bs: (1,3),(6,7) plus... (2,?) no B
		// left within gap. So 2... let the oracle decide below; here pin
		// simple cases.
		{[]string{"ABAB"}, "AB", 0, 0, 2},
		{[]string{"ABAB"}, "AB", 0, 3, 2},
		{[]string{"AXB"}, "AB", 0, 0, 0},
		{[]string{"AXB"}, "AB", 1, 1, 1},
		{[]string{"AXB"}, "AB", 2, 5, 0},
		{[]string{"AABB"}, "AB", 0, 1, 2},
		{[]string{"AAB", "AAB"}, "AB", 0, 0, 2},
		{[]string{"ABCABC"}, "ABC", 0, 0, 2},
		{[]string{"ABCABC"}, "AC", 1, 1, 2},
		{[]string{""}, "A", 0, 0, 0},
	}
	for _, c := range cases {
		db := mkDB(c.seqs...)
		got, err := support(db, mkPat(db, c.pattern), c.minGap, c.maxGap)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("sup(%s | gap [%d,%d]) in %v = %d, want %d",
				c.pattern, c.minGap, c.maxGap, c.seqs, got, c.want)
		}
		if brute := bruteGapSupport(db, mkPat(db, c.pattern), c.minGap, c.maxGap); got != brute {
			t.Errorf("flow %d != brute %d for %s in %v", got, brute, c.pattern, c.seqs)
		}
	}
}

func TestSupportValidation(t *testing.T) {
	db := mkDB("AB")
	if _, err := support(db, mkPat(db, "AB"), -1, 2); err == nil {
		t.Error("negative MinGap accepted")
	}
	if _, err := support(db, mkPat(db, "AB"), 3, 2); err == nil {
		t.Error("inverted gap range accepted")
	}
	got, err := support(db, nil, 0, 2)
	if err != nil || got != 0 {
		t.Errorf("empty pattern: %d, %v", got, err)
	}
}

func TestMineValidation(t *testing.T) {
	db := mkDB("AB")
	if _, err := Mine(db, Options{MinSupport: 0, MaxGap: 1}); err == nil {
		t.Error("MinSupport=0 accepted")
	}
	if _, err := Mine(db, Options{MinSupport: 1, MinGap: 2, MaxGap: 1}); err == nil {
		t.Error("bad gap range accepted")
	}
	if _, err := Mine(db, Options{MinSupport: 1, MaxGap: 1, MaxPatterns: -1}); err == nil {
		t.Error("negative MaxPatterns accepted")
	}
}

// TestPropertySupportMatchesBrute: flow support equals the backtracking
// oracle on random small inputs and random gap bounds.
func TestPropertySupportMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := seq.NewDB()
		names := []string{"A", "B", "C"}
		for i := 0; i < 1+r.Intn(3); i++ {
			n := r.Intn(10)
			ev := make([]string, n)
			for j := range ev {
				ev[j] = names[r.Intn(3)]
			}
			db.Add("", ev)
		}
		if db.Dict.Size() == 0 {
			return true
		}
		pattern := make([]seq.EventID, 1+r.Intn(3))
		for i := range pattern {
			pattern[i] = seq.EventID(r.Intn(db.Dict.Size()))
		}
		minGap := r.Intn(2)
		maxGap := minGap + r.Intn(4)
		got, err := support(db, pattern, minGap, maxGap)
		if err != nil {
			return false
		}
		want := bruteGapSupport(db, pattern, minGap, maxGap)
		if got != want {
			t.Logf("seed %d: got %d want %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUnboundedGapMatchesCore: with MaxGap at least the sequence
// length, gap-constrained support equals the paper's unconstrained
// repetitive support.
func TestPropertyUnboundedGapMatchesCore(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := seq.NewDB()
		names := []string{"A", "B", "C"}
		maxLen := 0
		for i := 0; i < 1+r.Intn(3); i++ {
			n := r.Intn(12)
			if n > maxLen {
				maxLen = n
			}
			ev := make([]string, n)
			for j := range ev {
				ev[j] = names[r.Intn(3)]
			}
			db.Add("", ev)
		}
		if db.Dict.Size() == 0 {
			return true
		}
		pattern := make([]seq.EventID, 1+r.Intn(4))
		for i := range pattern {
			pattern[i] = seq.EventID(r.Intn(db.Dict.Size()))
		}
		got, err := support(db, pattern, 0, maxLen+1)
		if err != nil {
			return false
		}
		ix := seq.NewIndex(db)
		want := core.SupportOf(ix, pattern)
		if got != want {
			t.Logf("seed %d: gapped %d, core %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

// TestMineComplete: the miner finds exactly the frequent gap-constrained
// patterns (enumerated by brute force over the prefix-closed space).
func TestMineComplete(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := seq.NewDB()
		names := []string{"A", "B", "C"}
		for i := 0; i < 1+r.Intn(3); i++ {
			n := r.Intn(9)
			ev := make([]string, n)
			for j := range ev {
				ev[j] = names[r.Intn(3)]
			}
			db.Add("", ev)
		}
		minSup := 1 + r.Intn(2)
		maxGap := r.Intn(3)
		const maxLen = 4
		res, err := Mine(db, Options{MinSupport: minSup, MaxGap: maxGap, MaxPatternLength: maxLen})
		if err != nil {
			t.Log(err)
			return false
		}
		got := map[string]int{}
		for _, p := range res.Patterns {
			got[db.PatternString(p.Events)] = p.Support
		}
		// Brute enumeration over the prefix-closed space.
		want := map[string]int{}
		var alpha []seq.EventID
		for e := 0; e < db.Dict.Size(); e++ {
			alpha = append(alpha, seq.EventID(e))
		}
		var pattern []seq.EventID
		var rec func()
		rec = func() {
			for _, e := range alpha {
				pattern = append(pattern, e)
				sup := bruteGapSupport(db, pattern, 0, maxGap)
				if sup >= minSup {
					want[db.PatternString(pattern)] = sup
					if len(pattern) < maxLen {
						rec()
					}
				}
				pattern = pattern[:len(pattern)-1]
			}
		}
		rec()
		if len(got) != len(want) {
			t.Logf("seed %d: got %d patterns, want %d (got=%v want=%v)", seed, len(got), len(want), got, want)
			return false
		}
		for k, v := range want {
			if got[k] != v {
				t.Logf("seed %d: %s got %d want %d", seed, k, got[k], v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}

func TestMineContiguous(t *testing.T) {
	// MaxGap = 0 mines repeating substrings.
	db := mkDB("ABCABCABC")
	res, err := Mine(db, Options{MinSupport: 3, MaxGap: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range res.Patterns {
		got[db.PatternString(p.Events)] = p.Support
	}
	for pat, want := range map[string]int{"A": 3, "B": 3, "C": 3, "AB": 3, "BC": 3, "ABC": 3} {
		if got[pat] != want {
			t.Errorf("sup(%s) = %d, want %d", pat, got[pat], want)
		}
	}
	if _, ok := got["AC"]; ok {
		t.Error("AC is not contiguous and must not be frequent at MaxGap=0")
	}
}

func TestMineTruncation(t *testing.T) {
	db := mkDB("ABCABCABC")
	res, err := Mine(db, Options{MinSupport: 1, MaxGap: 1, MaxPatterns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 || !res.Stats.Truncated {
		t.Errorf("patterns=%d truncated=%v", len(res.Patterns), res.Stats.Truncated)
	}
}

// TestAprioriFailsUnderGaps documents WHY the package cannot reuse the
// paper's Apriori property: a sub-pattern can be less frequent than its
// super-pattern once gaps are bounded.
func TestAprioriFailsUnderGaps(t *testing.T) {
	db := mkDB("ACB")
	acb, err := support(db, mkPat(db, "ACB"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := support(db, mkPat(db, "AB"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(acb > ab) {
		t.Errorf("expected sup(ACB)=%d > sup(AB)=%d under gap=0 (Apriori violation)", acb, ab)
	}
	// Prefix anti-monotonicity still holds: sup(AC) >= sup(ACB).
	ac, err := support(db, mkPat(db, "AC"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ac < acb {
		t.Errorf("prefix monotonicity violated: sup(AC)=%d < sup(ACB)=%d", ac, acb)
	}
}

// TestGappedParallelMatchesSequential: on random databases the
// work-stealing kernel returns the sequential gapped mine — patterns,
// supports, order, NumPatterns and Truncated — at every worker count,
// with and without a pattern budget.
func TestGappedParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // let 4 and 8 workers run
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 40; iter++ {
		db := seq.NewDB()
		for i := 0; i < 2+r.Intn(6); i++ {
			ev := make([]string, 5+r.Intn(30))
			for j := range ev {
				ev[j] = string(rune('A' + r.Intn(5)))
			}
			db.Add("", ev)
		}
		ix := seq.NewIndex(db)
		minGap := r.Intn(2)
		sem := Semantics{MinGap: minGap, MaxGap: minGap + r.Intn(3)}
		for _, maxPatterns := range []int{0, 1 + r.Intn(20)} {
			opt := core.Options{MinSupport: 2 + r.Intn(3), MaxPatterns: maxPatterns, Semantics: sem}
			want, err := core.Mine(ix, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 8} {
				got, err := core.MineParallel(ix, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Patterns, got.Patterns) ||
					want.NumPatterns != got.NumPatterns || want.Stats.Truncated != got.Stats.Truncated {
					t.Fatalf("iter %d %+v maxPatterns=%d workers=%d: %d patterns (truncated %t), want %d (truncated %t)",
						iter, sem, maxPatterns, workers, got.NumPatterns, got.Stats.Truncated, want.NumPatterns, want.Stats.Truncated)
				}
			}
		}
	}
}
