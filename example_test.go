package repro_test

import (
	"fmt"
	"strings"

	"repro"
)

// The motivating example of the paper (Example 1.1): repetitive support
// distinguishes AB (which loops inside S1) from CD (which does not).
func ExampleDatabase_Support() {
	db := repro.NewDatabase()
	db.AddString("S1", "AABCDABB")
	db.AddString("S2", "ABCD")
	fmt.Println(db.Support([]string{"A", "B"}))
	fmt.Println(db.Support([]string{"C", "D"}))
	// Output:
	// 4
	// 2
}

// Closed mining keeps only patterns with no super-pattern of equal
// support; the frequent set shrinks from 20 patterns to 3 with no loss of
// information.
func ExampleDatabase_MineClosed() {
	db := repro.NewDatabase()
	db.AddString("S1", "AABCDABB")
	db.AddString("S2", "ABCD")
	res, err := db.MineClosed(repro.Options{MinSupport: 2})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Patterns {
		fmt.Println(strings.Join(p.Events, ""), p.Support)
	}
	// Output:
	// AABB 2
	// ABCD 2
	// AB 4
}

// SupportSet returns a maximum set of non-overlapping occurrences — the
// leftmost support set the paper's Table IV traces.
func ExampleDatabase_SupportSet() {
	db := repro.NewDatabase()
	db.AddString("S1", "ABCACBDDB")
	db.AddString("S2", "ACDBACADD")
	for _, ins := range db.SupportSet([]string{"A", "C", "B"}) {
		fmt.Println(ins.Sequence, ins.Positions)
	}
	// Output:
	// S1 [1 3 6]
	// S1 [4 5 9]
	// S2 [1 2 4]
}

// Per-sequence supports are the classification feature values proposed in
// the paper's Section V.
func ExampleDatabase_PerSequenceSupport() {
	db := repro.NewDatabase()
	db.AddString("repeat", "CABABABABABD")
	db.AddString("oneshot", "ABCD")
	fmt.Println(db.PerSequenceSupport([]string{"A", "B"}))
	// Output:
	// [5 1]
}

// Gap-constrained mining (SemanticsGapped) bounds the events allowed
// between consecutive pattern events; with MaxGap 0 it mines repeating
// substrings.
func ExampleDatabase_Mine_gapped() {
	db := repro.NewDatabase()
	db.AddString("read", "ACGTACGTACGT")
	res, err := db.Mine(repro.Options{Semantics: repro.SemanticsGapped, MinSupport: 3, MaxGap: 0, MaxPatternLength: 2})
	if err != nil {
		panic(err)
	}
	for _, p := range res.Patterns {
		fmt.Println(strings.Join(p.Events, ""), p.Support)
	}
	// Output:
	// A 3
	// AC 3
	// C 3
	// CG 3
	// G 3
	// GT 3
	// T 3
}
