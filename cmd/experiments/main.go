// Command experiments runs the paper's evaluation (Table I, Figures 2-6,
// the Section IV-B case study and the top-k scaling grid) from one
// experiment spec, and renders the results.
//
//	experiments -spec scripts/paper/bench.json -csv bench.csv   # run; one CSV line per repeat
//	experiments -spec scripts/paper/bench.json -repeat 1        # override the spec's repeat count
//	experiments -render bench.csv,grid.csv                      # markdown: Table I + one table per figure
//
// Specs are JSON (see internal/harness.Spec): each row names a figure, a
// series, the x value it plots, a generated dataset and a repro.Options
// query in the HTTP mine body's spelling. scripts/paper/bench.json is the
// scaled-down evaluation (about 20 s per repeat), full.json the paper's
// dataset parameters (hours) and grid.json the top-k scaling grid.
// scripts/paper.sh runs a spec and regenerates EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	var (
		specPath = flag.String("spec", "", "experiment spec JSON to run")
		csvPath  = flag.String("csv", "", "CSV output of -spec (empty = stdout)")
		repeat   = flag.Int("repeat", 0, "runs per row, overriding the spec's repeat count (0 = the spec's)")
		render   = flag.String("render", "", "comma-separated result CSVs to render as markdown")
	)
	flag.Parse()
	var err error
	switch {
	case *specPath != "" && *render == "":
		err = run(*specPath, *csvPath, *repeat)
	case *render != "" && *specPath == "":
		err = renderCSVs(strings.Split(*render, ","))
	default:
		err = fmt.Errorf("give exactly one of -spec or -render")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(specPath, csvPath string, repeat int) error {
	f, err := os.Open(specPath)
	if err != nil {
		return err
	}
	spec, err := harness.ParseSpec(f)
	f.Close()
	if err != nil {
		return err
	}
	if repeat > 0 {
		spec.Repeat = repeat
	}
	out := os.Stdout
	if csvPath != "" {
		if out, err = os.Create(csvPath); err != nil {
			return err
		}
		defer out.Close() // error paths; success checks Close below
	}
	w, err := harness.NewCSVWriter(out)
	if err != nil {
		return err
	}
	var recs []harness.Record
	err = harness.Run(spec, func(r harness.Record) error {
		fmt.Fprintf(os.Stderr, "%s %s x=%g #%d: %d patterns in %v\n", r.Figure, r.Series, r.X, r.Repeat, r.Patterns, r.Elapsed)
		recs = append(recs, r)
		return w.Write(r)
	})
	if err != nil {
		return err
	}
	for _, v := range harness.CheckShape(recs) {
		fmt.Fprintln(os.Stderr, "SHAPE VIOLATION:", v)
	}
	if out == os.Stdout {
		return nil
	}
	return out.Close()
}

func renderCSVs(paths []string) error {
	var recs []harness.Record
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		r, err := harness.ReadCSV(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r...)
	}
	out, err := harness.Render(recs)
	if err != nil {
		return err
	}
	_, err = os.Stdout.WriteString(out)
	return err
}
