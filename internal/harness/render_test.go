package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
)

func TestSweepTableTruncationMarkers(t *testing.T) {
	recs := []Record{
		{Figure: "f", Series: "all", X: 10, Dataset: "D", Repeat: 1, Elapsed: time.Second, Patterns: 100},
		{Figure: "f", Series: "closed", X: 10, Dataset: "D", Repeat: 1, Elapsed: time.Millisecond, Patterns: 10},
		{Figure: "f", Series: "all", X: 5, Dataset: "D", Repeat: 1, Elapsed: 2 * time.Second, Patterns: 5000, Truncated: true},
		{Figure: "f", Series: "closed", X: 5, Dataset: "D", Repeat: 1, Elapsed: 5 * time.Millisecond, Patterns: 50},
		{Figure: "f", Series: "closed", X: 2, Dataset: "D", Repeat: 1, Elapsed: time.Second, Patterns: 400},
	}
	tbl, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"| x | all median | all IQR | all patterns | closed median | closed IQR | closed patterns |",
		"| 5 | 2.00s* | 0µs | 5000* | 5.0ms | 0µs | 50 |",
		"| 2 | - | - | - | 1.00s | 0µs | 400 |", // skipped point: dashes
		"pattern budget",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("render lacks %q:\n%s", want, tbl)
		}
	}
}

func TestSweepTableNoLegendWithoutTruncation(t *testing.T) {
	tbl, err := Render([]Record{{Figure: "f", Series: "closed", X: 1, Repeat: 1, Patterns: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tbl, "pattern budget") || strings.Contains(tbl, "cut-off region") {
		t.Errorf("legend printed without truncated or skipped points:\n%s", tbl)
	}
}

// TestRenderMedianIQR: repeats collapse to their median and
// interquartile range (linear interpolation between order statistics).
func TestRenderMedianIQR(t *testing.T) {
	var recs []Record
	for i, ms := range []int{40, 10, 20, 30, 50} {
		recs = append(recs, Record{Figure: "f", Series: "closed", X: 1, Repeat: i + 1,
			Elapsed: time.Duration(ms) * time.Millisecond, Patterns: 7})
	}
	tbl, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "| 1 | 30.0ms | 20.0ms | 7 |") {
		t.Errorf("median/IQR wrong:\n%s", tbl)
	}
}

func TestCheckShapeViolations(t *testing.T) {
	rec := func(series string, x float64, n int, trunc bool) Record {
		return Record{Figure: "f", Series: series, X: x, Dataset: "D", Repeat: 1, Patterns: n, Truncated: trunc}
	}
	if viol := CheckShape([]Record{rec("all", 10, 5, false), rec("closed", 10, 9, false)}); len(viol) != 1 {
		t.Errorf("closed > all: violations = %v, want 1", viol)
	}
	// Closed count shrinking as min_sup drops is a violation on one
	// dataset, but not across datasets (a Figure 5/6 sweep).
	shrink := []Record{rec("closed", 10, 40, false), rec("closed", 5, 30, false)}
	if viol := CheckShape(shrink); len(viol) != 1 {
		t.Errorf("violations = %v, want 1", viol)
	}
	shrink[1].Dataset = "E"
	if viol := CheckShape(shrink); len(viol) != 0 {
		t.Errorf("a dataset sweep should not flag count order: %v", viol)
	}
	// A budget-stopped or missing GSgrow run is exempt from closed <= all.
	if viol := CheckShape([]Record{rec("all", 10, 5, true), rec("closed", 10, 9, false), rec("closed", 10, 9, false)}); len(viol) != 0 {
		t.Errorf("truncated points flagged: %v", viol)
	}
	// CloGSgrow must complete everywhere.
	if viol := CheckShape([]Record{rec("closed", 10, 9, true)}); len(viol) != 1 {
		t.Errorf("truncated closed run: violations = %v, want 1", viol)
	}
}

// TestRunMinSupSweepBudgetMarksTruncation: an "all" row that reaches its
// maxPatterns budget stops there and is marked truncated; the closed row
// at the same x completes.
func TestRunMinSupSweepBudgetMarksTruncation(t *testing.T) {
	ds := Dataset{Quest: &datagen.QuestParams{D: 1, C: 10, N: 1, S: 5, Seed: 3}}
	recs := run(t, Spec{Rows: sweep("budget", ds, 10, 0, 5)})
	if a := recs[0]; a.Series != "all" || !a.Truncated || a.Patterns != 10 {
		t.Errorf("budgeted all row: %+v", a)
	}
	if c := recs[1]; c.Series != "closed" || c.Truncated || c.Patterns <= 10 {
		t.Errorf("closed row: %+v", c)
	}
}
