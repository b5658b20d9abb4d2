package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
)

// run executes spec and collects its records.
func run(t *testing.T, spec Spec) []Record {
	t.Helper()
	var out []Record
	if err := Run(spec, func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

// sweep is a min_sup sweep of GSgrow ("all", under budget) and CloGSgrow
// ("closed") on one dataset; minSups at or above cutoff get an "all" row.
func sweep(fig string, ds Dataset, budget, cutoff int, minSups ...int) []Row {
	var rows []Row
	for _, ms := range minSups {
		if ms >= cutoff {
			rows = append(rows, Row{Figure: fig, Series: "all", X: float64(ms), Dataset: ds,
				Query: repro.Options{MinSupport: ms, MaxPatterns: budget}})
		}
		rows = append(rows, Row{Figure: fig, Series: "closed", X: float64(ms), Dataset: ds,
			Query: repro.Options{MinSupport: ms, Closed: true}})
	}
	return rows
}

func series(recs []Record, name string) []Record {
	var out []Record
	for _, r := range recs {
		if r.Series == name {
			out = append(out, r)
		}
	}
	return out
}

// TestPaperClaims checks the paper's qualitative claims on a small spec
// through the experiment runner itself: the figures' shape, closed <= all
// wherever GSgrow completed, the closed set far smaller than the full set
// on TCAS (Fig. 4: 4 against 36 at min_sup 3000), and a budget-stopped
// GSgrow run marked in the rendered table.
func TestPaperClaims(t *testing.T) {
	quest := Dataset{Quest: &datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1}}
	tcas := Dataset{TCAS: &datagen.TCASParams{Seed: 1}}
	rows := append(sweep("fig2", quest, 1000, 0, 20, 15, 10), sweep("fig4", tcas, 0, 0, 3000)...)
	recs := run(t, Spec{Rows: rows})
	if viol := CheckShape(recs); len(viol) != 0 {
		t.Errorf("shape violations: %v", viol)
	}
	all := map[string]Record{}
	for _, r := range series(recs, "all") {
		all[fmt.Sprint(r.Figure, r.X)] = r
	}
	for _, c := range series(recs, "closed") {
		if a, ok := all[fmt.Sprint(c.Figure, c.X)]; !ok || !a.Truncated && c.Patterns > a.Patterns {
			t.Errorf("%s x=%g: closed %d, all %+v", c.Figure, c.X, c.Patterns, a)
		}
	}
	tc := series(recs, "closed")[3]
	ta := series(recs, "all")[3]
	if tc.Figure != "fig4" || tc.Patterns != 4 || ta.Patterns != 36 {
		t.Errorf("TCAS at min_sup 3000: closed %d, all %d; want 4 and 36", tc.Patterns, ta.Patterns)
	}
	if q := series(recs, "all")[2]; !q.Truncated || q.Patterns != 1000 {
		t.Errorf("Quest all at min_sup 10 under a 1000-pattern budget: %+v", q)
	}
	out, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| 1000* |") || !strings.Contains(out, "pattern budget") {
		t.Errorf("truncated all row not marked:\n%s", out)
	}
}

func TestTable1GoldValues(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// Index rows by definition prefix.
	find := func(prefix string) Table1Row {
		for _, r := range res.Rows {
			if strings.HasPrefix(r.Definition, prefix) {
				return r
			}
		}
		t.Fatalf("row %q missing", prefix)
		return Table1Row{}
	}
	cases := []struct {
		prefix, ab, cd string
	}{
		{"repetitive", "4", "2"},
		{"sequential", "2", "2"},
		{"all occurrences", "9", "2"},
		{"episodes, width-4", "4", "3"}, // CD fits windows [2,5],[3,6],[4,7]
		{"episodes, minimal", "2", "1"},
		{"interaction", "9", "2"},
		{"iterative", "3", "2"},
	}
	for _, c := range cases {
		r := find(c.prefix)
		if r.SupAB != c.ab {
			t.Errorf("%s: sup(AB) = %s, want %s", c.prefix, r.SupAB, c.ab)
		}
		if r.SupCD != c.cd {
			t.Errorf("%s: sup(CD) = %s, want %s", c.prefix, r.SupCD, c.cd)
		}
	}
	gap := find("gap requirement")
	if !strings.HasPrefix(gap.SupAB, "4 (ratio 4/22)") {
		t.Errorf("gap row sup(AB) = %q, want 4 (ratio 4/22)", gap.SupAB)
	}
	if res.LargeRepetitiveAB != 300 || res.LargeRepetitiveCD != 100 {
		t.Errorf("large example repetitive: AB=%d CD=%d, want 300/100",
			res.LargeRepetitiveAB, res.LargeRepetitiveCD)
	}
	if res.LargeSequenceAB != 100 || res.LargeSequenceCD != 100 {
		t.Errorf("large example sequential: AB=%d CD=%d, want 100/100",
			res.LargeSequenceAB, res.LargeSequenceCD)
	}
	out := res.Render()
	if !strings.Contains(out, "| repetitive support (this paper) | 4 | 2 |") || !strings.Contains(out, "sup(AB)=300") {
		t.Errorf("Render missing content:\n%s", out)
	}
}

func TestRunMinSupSweepShape(t *testing.T) {
	ds := Dataset{Quest: &datagen.QuestParams{D: 1, C: 15, N: 1, S: 10, Seed: 11}}
	recs := run(t, Spec{Rows: sweep("fig2", ds, 50000, 0, 20, 10, 5)})
	if len(recs) != 6 {
		t.Fatalf("records = %d, want 6", len(recs))
	}
	if viol := CheckShape(recs); len(viol) != 0 {
		t.Errorf("shape violations: %v", viol)
	}
	// Counts grow as min_sup drops.
	closed := series(recs, "closed")
	if !(closed[0].Patterns <= closed[1].Patterns && closed[1].Patterns <= closed[2].Patterns) {
		t.Errorf("closed counts not monotone: %+v", closed)
	}
	out, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "## fig2") || !strings.Contains(out, "closed patterns") || !strings.Contains(out, "Dataset D1C15N1S10.") {
		t.Errorf("figure rendering:\n%s", out)
	}
}

// TestRunMinSupSweepCutoff: a min_sup below GSgrow's cut-off has no "all"
// row, and the rendered figure shows "-" there.
func TestRunMinSupSweepCutoff(t *testing.T) {
	ds := Dataset{Quest: &datagen.QuestParams{D: 1, C: 10, N: 1, S: 5, Seed: 3}}
	recs := run(t, Spec{Rows: sweep("cut", ds, 0, 10, 20, 10, 5)})
	if got := len(series(recs, "all")); got != 2 {
		t.Errorf("all rows = %d, want 2 (min_sup 5 is below the cut-off)", got)
	}
	out, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| 5 | - | - | - |") || !strings.Contains(out, "cut-off region") {
		t.Errorf("skipped point should render as '-':\n%s", out)
	}
}

// TestRunDBSweep: a Figure 5 style sweep varies the dataset, not the
// query. With the pattern pool pinned, the larger database extends the
// smaller one, so no count can shrink.
func TestRunDBSweep(t *testing.T) {
	var rows []Row
	for _, d := range []int{1, 2} {
		ds := Dataset{Quest: &datagen.QuestParams{D: d, C: 10, N: 1, S: 5, NumPatterns: 200, Seed: 3}}
		rows = append(rows,
			Row{Figure: "fig5", Series: "all", X: float64(d), Dataset: ds, Query: repro.Options{MinSupport: 10, MaxPatterns: 20000}},
			Row{Figure: "fig5", Series: "closed", X: float64(d), Dataset: ds, Query: repro.Options{MinSupport: 10, Closed: true}})
	}
	recs := run(t, Spec{Rows: rows})
	if len(recs) != 4 || recs[0].Dataset != "D1C10N1S5" || recs[2].Dataset != "D2C10N1S5" {
		t.Fatalf("records: %+v", recs)
	}
	if recs[2].Patterns < recs[0].Patterns || recs[3].Patterns < recs[1].Patterns {
		t.Errorf("counts decreased with database size: %+v", recs)
	}
	if viol := CheckShape(recs); len(viol) != 0 {
		t.Errorf("shape violations: %v", viol)
	}
	out, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| x | dataset |") {
		t.Errorf("a figure over several datasets needs a dataset column:\n%s", out)
	}
}

func TestCaseStudySmall(t *testing.T) {
	// Scaled-down case study: fewer noise events and a high threshold keep
	// the run fast while preserving the findings.
	rep, err := CaseStudy(Dataset{JBoss: &datagen.JBossParams{NumTraces: 12, NoiseMean: 2, Seed: 9}},
		repro.Options{MinSupport: 12, Closed: true}, 0.40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mined.NumPatterns == 0 {
		t.Fatal("no closed patterns mined")
	}
	if len(rep.Kept) == 0 || len(rep.Kept) > rep.Mined.NumPatterns {
		t.Errorf("pipeline kept %d of %d", len(rep.Kept), rep.Mined.NumPatterns)
	}
	// The longest pattern must cover at least the canonical flow (66
	// events): every trace embeds it, so at min_sup = NumTraces it is
	// frequent, and the longest closed pattern can only be longer.
	if len(rep.Kept[0].Events) < 66 {
		t.Errorf("longest pattern has %d events, want >= 66", len(rep.Kept[0].Events))
	}
	// The dominant two-event behaviour is Lock -> Unlock.
	if p := rep.Pair.Events; len(p) != 2 || p[0] != "TransImpl.lock" || p[1] != "TransImpl.unlock" {
		t.Errorf("most frequent pair = %v (support %d), want TransImpl.lock -> TransImpl.unlock", p, rep.Pair.Support)
	}
	out := rep.Summary()
	if !strings.Contains(out, "longest: ") || !strings.Contains(out, "TransImpl.lock -> TransImpl.unlock") || strings.Contains(out, ",") {
		t.Errorf("summary (must be comma-free):\n%s", out)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{1500 * time.Millisecond, "1.50s"},
		{2500 * time.Microsecond, "2.5ms"},
		{900 * time.Microsecond, "900µs"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
