package repro

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gapped"
)

func TestParseSemanticsRoundTrip(t *testing.T) {
	for _, s := range []Semantics{SemanticsRepetitive, SemanticsNonOverlapping, SemanticsCompressed, SemanticsGapped} {
		got, err := ParseSemantics(s.String())
		if err != nil {
			t.Errorf("ParseSemantics(%q): %v", s.String(), err)
		}
		if got != s {
			t.Errorf("ParseSemantics(%q) = %v, want %v", s.String(), got, s)
		}
	}
	if got, err := ParseSemantics(""); err != nil || got != SemanticsRepetitive {
		t.Errorf("ParseSemantics(\"\") = %v, %v; want repetitive", got, err)
	}
	if _, err := ParseSemantics("bogus"); !errors.Is(err, ErrUnknownSemantics) {
		t.Errorf("ParseSemantics(\"bogus\") error = %v, want ErrUnknownSemantics", err)
	}
}

// TestErrorTaxonomy: every public entry point wraps its failures with the
// matching sentinel, so callers can branch with errors.Is instead of
// string matching.
func TestErrorTaxonomy(t *testing.T) {
	db := NewDatabase()
	db.AddString("", "ABAB")

	if _, err := db.Mine(Options{MinSupport: 1, Semantics: Semantics(99)}); !errors.Is(err, ErrUnknownSemantics) {
		t.Errorf("unknown semantics enum: %v, want ErrUnknownSemantics", err)
	}
	invalid := []Options{
		{MinSupport: 0},
		{MinSupport: 1, MinGap: 1},          // gap bounds without gapped
		{MinSupport: 1, CompressDelta: 0.2}, // delta without compressed
		{MinSupport: 1, Semantics: SemanticsCompressed, CompressDelta: 1.5}, // delta out of range
		{MinSupport: 1, Semantics: SemanticsGapped, Workers: 4},             // gapped is sequential
		{MinSupport: 1, Semantics: SemanticsGapped, CollectInstances: true}, // gapped has no instance sets
		{MinSupport: 1, Semantics: SemanticsGapped, MinGap: 3, MaxGap: 1},   // inverted gap range
	}
	for i, opt := range invalid {
		if _, err := db.Mine(opt); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("invalid options case %d: %v, want ErrInvalidOptions", i, err)
		}
	}
	for _, closedSem := range []Semantics{SemanticsNonOverlapping, SemanticsGapped} {
		if _, err := db.MineClosed(Options{MinSupport: 1, Semantics: closedSem}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("closed × %s accepted", closedSem)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); !errors.Is(err, ErrInvalidOptions) {
		t.Error("ParseSyncPolicy: want ErrInvalidOptions")
	}
	if _, err := Load(nil, Format(99)); !errors.Is(err, ErrUnknownFormat) {
		t.Error("Load with bad format: want ErrUnknownFormat")
	}
	if _, err := Open(string([]byte{0}), OpenOptions{}); !errors.Is(err, ErrStorage) {
		t.Error("Open on impossible dir: want ErrStorage")
	}
}

// TestGapWrapperParity: the public gapped surface (Options.Semantics =
// SemanticsGapped) wraps the gap-constrained miner without changing its
// output: identical patterns, supports and order on the shipped fixtures,
// with and without a pattern budget.
func TestGapWrapperParity(t *testing.T) {
	fixtures := map[string]Format{
		"testdata/example11.chars": Chars,
		"testdata/traces.tokens":   Tokens,
	}
	for path, format := range fixtures {
		db, err := LoadFile(path, format)
		if err != nil {
			t.Fatal(err)
		}
		sdb := db.Snapshot().s.DB()
		for _, gaps := range []struct{ min, max int }{{0, 0}, {0, 2}, {1, 3}} {
			for _, maxPatterns := range []int{0, 3} {
				kernel, err := gapped.Mine(sdb, gapped.Options{MinSupport: 2, MinGap: gaps.min, MaxGap: gaps.max, MaxPatterns: maxPatterns})
				if err != nil {
					t.Fatal(err)
				}
				unified, err := db.Mine(Options{
					MinSupport: 2, Semantics: SemanticsGapped, MinGap: gaps.min, MaxGap: gaps.max, MaxPatterns: maxPatterns,
				})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]Pattern, len(kernel.Patterns))
				for i, p := range kernel.Patterns {
					want[i] = Pattern{Events: make([]string, len(p.Events)), Support: p.Support}
					for j, e := range p.Events {
						want[i].Events[j] = sdb.Dict.Name(e)
					}
				}
				if !reflect.DeepEqual(want, unified.Patterns) {
					t.Errorf("%s gaps [%d,%d] maxPatterns=%d: public surface and gapped miner disagree", path, gaps.min, gaps.max, maxPatterns)
				}
				if len(kernel.Patterns) != unified.NumPatterns || kernel.Truncated != unified.Truncated {
					t.Errorf("%s gaps [%d,%d] maxPatterns=%d: result metadata disagrees", path, gaps.min, gaps.max, maxPatterns)
				}
			}
		}
	}
}

// TestPublicNonOverlapSemantics: the disjoint-window mode through the
// public API, pinned on the hand-checked AABB case where repetitive and
// nonoverlap supports differ.
func TestPublicNonOverlapSemantics(t *testing.T) {
	db := NewDatabase()
	db.AddString("", "AABB")
	if got := db.Support([]string{"A", "B"}); got != 2 {
		t.Fatalf("repetitive support = %d, want 2", got)
	}
	res, err := db.Mine(Options{MinSupport: 1, Semantics: SemanticsNonOverlapping, CollectInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Patterns {
		if len(p.Events) == 2 && p.Events[0] == "A" && p.Events[1] == "B" {
			if p.Support != 1 {
				t.Errorf("nonoverlap sup(AB) = %d, want 1", p.Support)
			}
			if len(p.Instances) != 1 {
				t.Errorf("nonoverlap instances = %v, want one disjoint window", p.Instances)
			}
			return
		}
	}
	t.Error("pattern AB not mined under nonoverlap semantics")
}

// TestPublicCompressedSemantics: the representative mode through the
// public API returns a subset of the closed set covering it.
func TestPublicCompressedSemantics(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCABCABC")
	db.AddString("S2", "ABAB")
	closed, err := db.MineClosed(Options{MinSupport: 2})
	if err != nil {
		t.Fatal(err)
	}
	closedSup := map[string]int{}
	for _, p := range closed.Patterns {
		closedSup[patternKey(p.Events)] = p.Support
	}
	res, err := db.Mine(Options{MinSupport: 2, Semantics: SemanticsCompressed})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 || len(res.Patterns) > len(closed.Patterns) {
		t.Fatalf("got %d representatives for %d closed patterns", len(res.Patterns), len(closed.Patterns))
	}
	for _, p := range res.Patterns {
		sup, ok := closedSup[patternKey(p.Events)]
		if !ok || sup != p.Support {
			t.Errorf("representative %v (sup %d) is not a closed pattern with that support", p.Events, p.Support)
		}
	}
	// A tight cap is honored and reported.
	capped, err := db.Mine(Options{MinSupport: 2, Semantics: SemanticsCompressed, MaxPatterns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Patterns) != 1 {
		t.Errorf("MaxPatterns=1 returned %d representatives", len(capped.Patterns))
	}
	if len(res.Patterns) > 1 && !capped.Truncated {
		t.Error("capped compressed run not marked truncated")
	}
}

func patternKey(events []string) string {
	key := ""
	for _, e := range events {
		key += e + "\x00"
	}
	return key
}

// TestTopKSemanticsRejection: the best-first search takes only repetitive
// semantics.
func TestTopKSemanticsRejection(t *testing.T) {
	db := NewDatabase()
	db.AddString("", "ABAB")
	if _, err := db.Mine(Options{TopK: 2}); err != nil {
		t.Fatalf("default top-k: %v", err)
	}
	for _, s := range []Semantics{SemanticsNonOverlapping, SemanticsCompressed, SemanticsGapped} {
		if _, err := db.Mine(Options{TopK: 2, Semantics: s}); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("top-k × %s: %v, want ErrInvalidOptions", s, err)
		}
	}
	if _, err := db.Mine(Options{TopK: 2, Semantics: Semantics(42)}); !errors.Is(err, ErrUnknownSemantics) {
		t.Error("top-k with unknown semantics: want ErrUnknownSemantics")
	}
}

// TestSemanticsParallelAgreement: each kernel-backed mode returns the
// same patterns at Workers 1 and 4 through the public API.
func TestSemanticsParallelAgreement(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCABCABCABC")
	db.AddString("S2", "BCABCA")
	for _, sem := range []Semantics{SemanticsRepetitive, SemanticsNonOverlapping, SemanticsCompressed} {
		seqRes, err := db.Mine(Options{MinSupport: 2, Semantics: sem})
		if err != nil {
			t.Fatal(err)
		}
		parRes, err := db.Mine(Options{MinSupport: 2, Semantics: sem, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqRes.Patterns, parRes.Patterns) {
			t.Errorf("%s: parallel run diverges from sequential", sem)
		}
	}
}
