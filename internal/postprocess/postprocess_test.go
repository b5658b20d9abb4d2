package postprocess

import (
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/seq"
)

func mk(events ...seq.EventID) core.Pattern {
	return core.Pattern{Events: events, Support: 1}
}

func TestDensity(t *testing.T) {
	cases := []struct {
		events []seq.EventID
		want   float64
	}{
		{nil, 0},
		{[]seq.EventID{1}, 1},
		{[]seq.EventID{1, 1}, 0.5},
		{[]seq.EventID{1, 2, 1, 2}, 0.5},
		{[]seq.EventID{1, 2, 3, 4}, 1},
		{[]seq.EventID{1, 1, 1, 1, 2}, 0.4},
	}
	for _, c := range cases {
		if got := Density(c.events); got != c.want {
			t.Errorf("Density(%v) = %v, want %v", c.events, got, c.want)
		}
	}
}

func TestFilterDensity(t *testing.T) {
	ps := []core.Pattern{
		mk(1, 2, 3),    // density 1
		mk(1, 1, 1, 2), // density 0.5
		mk(1, 1, 1, 1), // density 0.25
	}
	got := FilterDensity(ps, 0.4)
	if len(got) != 2 {
		t.Fatalf("kept %d patterns, want 2", len(got))
	}
	// Exactly at threshold is excluded (the paper says "> 40%").
	exact := []core.Pattern{mk(1, 1, 1, 1, 2)} // density 0.4
	if kept := FilterDensity(exact, 0.4); len(kept) != 0 {
		t.Error("density exactly at threshold must be dropped")
	}
}

func TestFilterMaximal(t *testing.T) {
	ps := []core.Pattern{
		mk(1, 2),       // contained in (1,2,3)
		mk(1, 2, 3),    // contained in (1, 2, 3, 4)
		mk(1, 2, 3, 4), // maximal
		mk(5, 6),       // maximal (nothing contains it)
		mk(2, 4),       // subsequence of (1,2,3,4) -> not maximal
	}
	got := FilterMaximal(ps)
	if len(got) != 2 {
		t.Fatalf("kept %d, want 2: %v", len(got), got)
	}
	if len(got[0].Events) != 4 {
		t.Errorf("first maximal should be the longest, got %v", got[0].Events)
	}
}

func TestFilterMaximalDuplicates(t *testing.T) {
	// Equal patterns are not "proper" super-patterns of each other; both
	// survive (the miner never emits duplicates, this guards the helper).
	ps := []core.Pattern{mk(1, 2), mk(1, 2)}
	if got := FilterMaximal(ps); len(got) != 2 {
		t.Errorf("kept %d, want 2", len(got))
	}
}

func TestRankByLength(t *testing.T) {
	ps := []core.Pattern{
		{Events: []seq.EventID{1}, Support: 9},
		{Events: []seq.EventID{1, 2, 3}, Support: 2},
		{Events: []seq.EventID{4, 5}, Support: 7},
		{Events: []seq.EventID{1, 2}, Support: 7},
	}
	got := RankByLength(ps)
	if len(got[0].Events) != 3 {
		t.Errorf("first should be longest")
	}
	// Among the two length-2 patterns with equal support, (1,2) < (4,5).
	if got[1].Events[0] != 1 || got[2].Events[0] != 4 {
		t.Errorf("tie-break order wrong: %v %v", got[1].Events, got[2].Events)
	}
	if len(got[3].Events) != 1 {
		t.Errorf("last should be shortest")
	}
}

func TestCaseStudyPipeline(t *testing.T) {
	ps := []core.Pattern{
		mk(1, 2, 3, 4),          // dense, maximal
		mk(1, 2, 3),             // contained
		mk(7, 7, 7, 7, 7, 7, 1), // density 2/7 < 0.4 -> dropped
		mk(5, 6),                // maximal
	}
	got := pipeline(ps, 0.4)
	if len(got) != 2 {
		t.Fatalf("pipeline kept %d, want 2: %v", len(got), got)
	}
	if len(got[0].Events) != 4 || len(got[1].Events) != 2 {
		t.Errorf("ranking wrong: %v", got)
	}
}

func TestPipelineOnRealMiningOutput(t *testing.T) {
	db := seq.NewDB()
	db.AddChars("S1", "ABCABCABC")
	db.AddChars("S2", "ABCXYABC")
	pub := repro.NewDatabase()
	pub.AddString("S1", "ABCABCABC")
	pub.AddString("S2", "ABCXYABC")
	res, err := pub.Mine(repro.Options{MinSupport: 2, Closed: true, CollectInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := CaseStudy(db, res.Patterns, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("pipeline dropped everything")
	}
	// Every output pattern must be maximal within the output, and carry
	// the mined pattern's support and instances.
	for i := range out {
		if len(out[i].Instances) == 0 || out[i].Support != len(out[i].Instances) {
			t.Errorf("pattern %v lost its mined support set: %+v", out[i].Events, out[i])
		}
		for j := range out {
			if i == j {
				continue
			}
			if len(out[i].Events) < len(out[j].Events) && isSubsequence(ids(t, db, out[i].Events), ids(t, db, out[j].Events)) {
				t.Errorf("pattern %v contained in %v", out[i].Events, out[j].Events)
			}
		}
	}
	// Ordered by descending length.
	for i := 1; i < len(out); i++ {
		if len(out[i-1].Events) < len(out[i].Events) {
			t.Error("not ranked by length")
		}
	}
	if _, err := CaseStudy(db, []repro.Pattern{{Events: []string{"Q"}, Support: 2}}, 0.4); err == nil {
		t.Error("pattern naming an event outside db accepted")
	}
}

func ids(t *testing.T, db *seq.DB, names []string) []seq.EventID {
	t.Helper()
	events, err := db.EventSeq(names)
	if err != nil {
		t.Fatal(err)
	}
	return events
}
