package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/datagen"
)

// TestParseGridSpec: a top-k grid is spec rows with topK/workers; queries
// use the HTTP mine body's spelling, and unknown fields fail anywhere.
func TestParseGridSpec(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{"repeat":2,"rows":[
		{"figure":"grid","series":"closed k=5","x":2,"dataset":{"quest":{"d":1,"c":15,"n":1,"s":10,"seed":7}},
		 "query":{"topK":5,"closed":true,"workers":2}},
		{"figure":"case","series":"closed","x":12,"dataset":{"jboss":{"numTraces":12,"noiseMean":2,"seed":1}},
		 "query":{"minSupport":12,"closed":true,"semantics":"repetitive"},"density":0.4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Repeat != 2 || len(spec.Rows) != 2 {
		t.Fatalf("spec not decoded: %+v", spec)
	}
	if q := spec.Rows[0].Dataset.Quest; q == nil || q.C != 15 || q.Seed != 7 {
		t.Errorf("quest params not decoded: %+v", q)
	}
	if got, want := spec.Rows[0].Query, (repro.Options{TopK: 5, Closed: true, Workers: 2}); !reflect.DeepEqual(got, want) {
		t.Errorf("query = %+v, want %+v", got, want)
	}
	if r := spec.Rows[1]; r.Density != 0.4 || r.Dataset.JBoss == nil || r.Dataset.JBoss.NumTraces != 12 {
		t.Errorf("case-study row not decoded: %+v", r)
	}
	for _, bad := range []string{
		`{"rows":[],"kays":[5]}`,
		`{"rows":[{"figure":"f","query":{"topk":5,"workerz":2}}]}`,
		`{"rows":[{"figure":"f","dataset":{"quest":{"d":1,"q":3}}}]}`,
		`{"rows":[{"figure":"f","query":{"minSupport":2,"semantics":"maximal"}}]}`,
	} {
		if _, err := ParseSpec(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}

func TestRunGridShape(t *testing.T) {
	ds := Dataset{Quest: &datagen.QuestParams{D: 1, C: 15, N: 1, S: 10, Seed: 7}}
	var rows []Row
	for _, k := range []int{5, 10} {
		for _, w := range []int{1, 2} {
			rows = append(rows, Row{Figure: "grid", Series: fmt.Sprintf("closed k=%d", k), X: float64(w),
				Dataset: ds, Query: repro.Options{TopK: k, Closed: true, Workers: w}})
		}
	}
	recs := run(t, Spec{Repeat: 2, Rows: rows})
	if want := 2 * 2 * 2; len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}
	for i, r := range recs {
		k := 5 * (1 + i/4)
		if r.Dataset != "D1C15N1S10" || r.Patterns != k || r.WorkersRequested != int(r.X) {
			t.Errorf("record %d wrong: %+v", i, r)
		}
		if r.FrontierPeak <= 0 || r.ArenaBytes <= 0 || r.WorkersEffective < 1 {
			t.Errorf("stats not populated: %+v", r)
		}
	}
	// Repeats of a row must agree on the result (byte-identical search).
	if recs[0].Patterns != recs[1].Patterns || recs[0].Query != recs[1].Query || recs[1].Repeat != 2 {
		t.Errorf("repeats disagree: %+v vs %+v", recs[0], recs[1])
	}

	var csv strings.Builder
	w, err := NewCSVWriter(&csv)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != len(recs)+1 || !strings.HasPrefix(lines[0], "figure,series,x,dataset,query,repeat,") {
		t.Errorf("csv:\n%s", csv.String())
	}
	if !strings.HasPrefix(lines[1], "grid,closed k=5,1,D1C15N1S10,sem=repetitive closed=true minsup=0 topk=5 ") {
		t.Errorf("csv first row wrong: %s", lines[1])
	}
	back, err := ReadCSV(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, recs) {
		t.Errorf("csv round trip changed the records:\n%+v\n%+v", back, recs)
	}

	table, err := Render(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table, "closed k=5 speedup") || !strings.Contains(table, "1.00x") || !strings.Contains(table, "workers used") {
		t.Errorf("grid table missing speedup baseline:\n%s", table)
	}
}

// TestRunGridBadMode: a query repro.Options.Validate rejects (here top-k
// under another semantics), or a density threshold outside [0, 1), fails
// the spec before anything runs.
func TestRunGridBadMode(t *testing.T) {
	ds := Dataset{TCAS: &datagen.TCASParams{NumTraces: 5}}
	spec := Spec{Rows: []Row{
		{Figure: "ok", Dataset: ds, Query: repro.Options{MinSupport: 3}},
		{Figure: "bad", Dataset: ds, Query: repro.Options{TopK: 5, Semantics: repro.SemanticsNonOverlapping}},
	}}
	ran := 0
	err := Run(spec, func(Record) error { ran++; return nil })
	if err == nil || !strings.Contains(err.Error(), "row 1 (bad/)") || ran != 0 {
		t.Errorf("bad query: err %v after %d runs", err, ran)
	}
	spec.Rows[1] = Row{Figure: "bad", Dataset: ds, Query: repro.Options{MinSupport: 3, Closed: true}, Density: 1.5}
	if err := Run(spec, func(Record) error { ran++; return nil }); err == nil || !strings.Contains(err.Error(), "density") || ran != 0 {
		t.Errorf("bad density: err %v after %d runs", err, ran)
	}
}

func TestRunRejectsBadDataset(t *testing.T) {
	q := repro.Options{MinSupport: 3}
	for _, ds := range []Dataset{
		{},
		{TCAS: &datagen.TCASParams{}, JBoss: &datagen.JBossParams{}},
	} {
		err := Run(Spec{Rows: []Row{{Figure: "f", Dataset: ds, Query: q}}}, func(Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "exactly one of") {
			t.Errorf("dataset %+v: err %v", ds, err)
		}
	}
	// A generator rejecting its parameters fails the run too.
	bad := Dataset{Quest: &datagen.QuestParams{D: 0}}
	if err := Run(Spec{Rows: []Row{{Figure: "f", Dataset: bad, Query: q}}}, func(Record) error { return nil }); err == nil {
		t.Error("invalid Quest parameters accepted")
	}
}
