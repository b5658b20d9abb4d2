package harness

import (
	"os"
	"strings"
	"testing"
)

// marker separates EXPERIMENTS.md's hand-written part from the part
// scripts/paper.sh renders from the committed result CSVs.
const marker = "<!-- Generated by scripts/paper.sh from scripts/paper/*.csv; edit above this line only. -->"

// TestExperimentsMarkdownMatchesCSV: the committed EXPERIMENTS.md is
// exactly what rendering the committed CSVs gives (in paper.sh's order),
// and the committed bench-scale results satisfy the paper's claims.
func TestExperimentsMarkdownMatchesCSV(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, generated, ok := strings.Cut(string(doc), marker+"\n\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md lacks the marker line")
	}
	var all, bench []Record
	for _, name := range []string{"bench", "grid", "full"} {
		f, err := os.Open("../../scripts/paper/" + name + ".csv")
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadCSV(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s.csv: %v", name, err)
		}
		all = append(all, recs...)
		if name == "bench" {
			bench = recs
		}
	}
	want, err := Render(all)
	if err != nil {
		t.Fatal(err)
	}
	if generated != want {
		t.Errorf("EXPERIMENTS.md is stale: rerun scripts/paper.sh (or experiments -render) on the committed CSVs")
	}
	if len(bench) == 0 {
		t.Fatal("scripts/paper/bench.csv is not committed")
	}
	if viol := CheckShape(bench); len(viol) != 0 {
		t.Errorf("committed bench results violate the paper's claims: %v", viol)
	}
}
