package repro

import (
	"strings"
	"testing"
)

func TestPublicGapConstrainedMine(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCABCABC")
	res, err := db.Mine(Options{Semantics: SemanticsGapped, MinSupport: 3, MaxGap: 0})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range res.Patterns {
		got[strings.Join(p.Events, "")] = p.Support
	}
	if got["ABC"] != 3 || got["AB"] != 3 {
		t.Errorf("contiguous supports: %v", got)
	}
	if _, ok := got["AC"]; ok {
		t.Error("AC frequent despite MaxGap=0")
	}
}

func TestPublicGapConstrainedSupport(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "AAB")
	got, err := db.SupportWithGaps([]string{"A", "B"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("SupportWithGaps(AB | 0,0) = %d, want 1", got)
	}
	// Unconstrained equivalence with the regular Support.
	loose, err := db.SupportWithGaps([]string{"A", "B"}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if loose != db.Support([]string{"A", "B"}) {
		t.Errorf("loose gap support %d != unconstrained %d", loose, db.Support([]string{"A", "B"}))
	}
	// Unknown event.
	if got, err := db.SupportWithGaps([]string{"Z"}, 0, 1); err != nil || got != 0 {
		t.Errorf("unknown event: %d, %v", got, err)
	}
}

func TestPublicGapConstrainedValidation(t *testing.T) {
	db := NewDatabase()
	db.AddString("", "AB")
	if _, err := db.Mine(Options{Semantics: SemanticsGapped, MinSupport: 0, MaxGap: 1}); err == nil {
		t.Error("MinSupport=0 accepted")
	}
	if _, err := db.SupportWithGaps([]string{"A"}, 2, 1); err == nil {
		t.Error("inverted gap range accepted")
	}
}

func TestPublicGapConstrainedDNA(t *testing.T) {
	// The future-work motivation: repeated motifs in DNA-like strings with
	// bounded gaps.
	db := NewDatabase()
	db.AddString("read1", "ACGTACGTACGT")
	db.AddString("read2", "ACGGACGG")
	res, err := db.Mine(Options{Semantics: SemanticsGapped, MinSupport: 5, MaxGap: 1, MaxPatternLength: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, p := range res.Patterns {
		got[strings.Join(p.Events, "")] = p.Support
	}
	// AC appears 3x in read1 + 2x in read2, all contiguous.
	if got["AC"] != 5 {
		t.Errorf("sup(AC) = %d, want 5", got["AC"])
	}
	if got["ACG"] != 5 {
		t.Errorf("sup(ACG) = %d, want 5", got["ACG"])
	}
}
