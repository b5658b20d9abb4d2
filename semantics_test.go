package repro

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/datagen"
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

// TestGappedWorkerParity: the public gapped surface returns the
// sequential gap-constrained mine (gapped.Mine) at every worker count —
// identical patterns, supports and order, and the same NumPatterns and
// Truncated — on the shipped fixtures and the benchmark's gap database,
// with and without a pattern budget.
func TestGappedWorkerParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // let 4 and 8 workers run
	type input struct {
		name   string
		db     *Database
		minSup int
	}
	var inputs []input
	for path, format := range map[string]Format{
		"testdata/example11.chars": Chars,
		"testdata/traces.tokens":   Tokens,
	} {
		db, err := LoadFile(path, format)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{path, db, 2})
	}
	quest, err := datagen.Quest(datagen.QuestParams{D: 1, C: 12, N: 1, S: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gapDB := NewDatabase()
	for i := 0; i < 200; i++ {
		names := make([]string, len(quest.Seqs[i]))
		for j, e := range quest.Seqs[i] {
			names[j] = quest.Dict.Name(e)
		}
		gapDB.Add("", names)
	}
	inputs = append(inputs, input{"quest gap database", gapDB, 10})

	for _, in := range inputs {
		sdb := in.db.Snapshot().s.DB()
		for _, gaps := range []struct{ min, max int }{{0, 0}, {0, 2}, {1, 3}} {
			for _, maxPatterns := range []int{0, 3} {
				ref, err := gapped.Mine(sdb, gapped.Options{MinSupport: in.minSup, MinGap: gaps.min, MaxGap: gaps.max, MaxPatterns: maxPatterns})
				if err != nil {
					t.Fatal(err)
				}
				want := make([]Pattern, len(ref.Patterns))
				for i, p := range ref.Patterns {
					want[i] = Pattern{Events: make([]string, len(p.Events)), Support: p.Support}
					for j, e := range p.Events {
						want[i].Events[j] = sdb.Dict.Name(e)
					}
				}
				for _, workers := range []int{1, 2, 4, 8} {
					got, err := in.db.Mine(Options{
						MinSupport: in.minSup, Semantics: SemanticsGapped, MinGap: gaps.min, MaxGap: gaps.max,
						MaxPatterns: maxPatterns, Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(want, got.Patterns) {
						t.Errorf("%s gaps [%d,%d] maxPatterns=%d workers=%d: patterns differ from the sequential mine",
							in.name, gaps.min, gaps.max, maxPatterns, workers)
					}
					if ref.NumPatterns != got.NumPatterns || ref.Stats.Truncated != got.Truncated {
						t.Errorf("%s gaps [%d,%d] maxPatterns=%d workers=%d: NumPatterns/Truncated %d/%v, want %d/%v",
							in.name, gaps.min, gaps.max, maxPatterns, workers, got.NumPatterns, got.Truncated, ref.NumPatterns, ref.Stats.Truncated)
					}
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
	for _, sem := range []Semantics{SemanticsRepetitive, SemanticsNonOverlapping, SemanticsCompressed, SemanticsGapped} {
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
