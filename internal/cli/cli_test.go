package cli

import (
	"strings"
	"testing"
)

const table3 = "S1: ABCACBDDB\nS2: ACDBACADD\n"

// TestParseFormat: the commands accept the three format names and keep
// their error text for any other, on every path that names a format.
func TestParseFormat(t *testing.T) {
	for name, input := range map[string]string{"tokens": "a b\n", "chars": "AB\n", "spmf": "1 -1 -2\n"} {
		if err := Mine(MineConfig{Format: name, Stats: true}, strings.NewReader(input), &strings.Builder{}); err != nil {
			t.Errorf("Mine -stats -format %s: %v", name, err)
		}
	}
	const want = `unknown format "csv" (want tokens, chars, or spmf)`
	if err := Generate(GenerateConfig{Dataset: "quest", Format: "csv", D: 1, C: 5, N: 1, S: 2}, &strings.Builder{}, &strings.Builder{}); err == nil || err.Error() != want {
		t.Errorf("Generate -format csv: %v, want %q", err, want)
	}
	if err := Mine(MineConfig{Format: "csv", Stats: true}, strings.NewReader(table3), &strings.Builder{}); err == nil || err.Error() != want {
		t.Errorf("Mine -stats -format csv: %v, want %q", err, want)
	}
	if err := Append(AppendConfig{Addr: "127.0.0.1:1", DB: "x", Format: "csv"}, strings.NewReader(table3), &strings.Builder{}); err == nil || err.Error() != want {
		t.Errorf("Append -format csv: %v, want %q", err, want)
	}
	const wantMine = `repro: unknown format "csv" (want tokens, chars, spmf)`
	if err := Mine(MineConfig{Format: "csv", MinSup: 2}, strings.NewReader(table3), &strings.Builder{}); err == nil || err.Error() != wantMine {
		t.Errorf("Mine -format csv: %v, want %q", err, wantMine)
	}
}

func TestMineAll(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", MinSup: 3}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "# GSgrow min_sup=3:") {
		t.Errorf("missing header:\n%s", text)
	}
	if !strings.Contains(text, "3\tACB") {
		t.Errorf("missing ACB with support 3:\n%s", text)
	}
	if !strings.Contains(text, "5\tA") {
		t.Errorf("missing A with support 5:\n%s", text)
	}
}

func TestMineClosed(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", MinSup: 3, Closed: true}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "CloGSgrow") {
		t.Errorf("missing algorithm name:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasSuffix(line, "\tAB") || strings.HasSuffix(line, "\tAA") {
			t.Errorf("non-closed pattern printed: %s", line)
		}
	}
}

func TestMineStatsOnly(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", Stats: true}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sequences") || strings.Contains(out.String(), "GSgrow") {
		t.Errorf("stats output wrong:\n%s", out.String())
	}
}

func TestMineSupportQuery(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", Support: "A,C,B", Instances: true},
		strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "sup(A C B) = 3") {
		t.Errorf("support query output:\n%s", text)
	}
	// Instances from Table IV.
	if !strings.Contains(text, "S1 [1 3 6]") || !strings.Contains(text, "S2 [1 2 4]") {
		t.Errorf("instances missing:\n%s", text)
	}
}

func TestMineSupportQueryUnknownEvent(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", Support: "A,Z"}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "= 0") {
		t.Errorf("unknown event should report 0:\n%s", out.String())
	}
}

func TestMineTopAndBudget(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", MinSup: 2, Top: 3}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 3 patterns
		t.Errorf("want 4 lines, got %d:\n%s", len(lines), out.String())
	}
	out.Reset()
	err = Mine(MineConfig{Format: "chars", MinSup: 1, MaxPatterns: 5}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(truncated)") {
		t.Errorf("truncation not reported:\n%s", out.String())
	}
}

func TestMineWithInstances(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", MinSup: 5, Instances: true}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\tS1 [") {
		t.Errorf("instance lines missing:\n%s", out.String())
	}
}

func TestMineDensityPipeline(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", MinSup: 2, Closed: true, Density: 0.4},
		strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "post-processing") {
		t.Errorf("pipeline header missing:\n%s", out.String())
	}
}

func TestMineBadInput(t *testing.T) {
	if err := Mine(MineConfig{Format: "nope", MinSup: 1}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("bad format accepted")
	}
	if err := Mine(MineConfig{Format: "spmf", MinSup: 1}, strings.NewReader("1 2 -1 -2\n"), &strings.Builder{}); err == nil {
		t.Error("bad SPMF accepted")
	}
	if err := Mine(MineConfig{Format: "chars", MinSup: 0}, strings.NewReader(table3), &strings.Builder{}); err == nil {
		t.Error("minSup=0 accepted")
	}
	// -topk has no support sets, and k already bounds the result.
	if err := Mine(MineConfig{Format: "chars", TopK: 3, Instances: true}, strings.NewReader(table3), &strings.Builder{}); err == nil {
		t.Error("-topk with -instances accepted")
	}
	if err := Mine(MineConfig{Format: "chars", TopK: 3, MaxPatterns: 5}, strings.NewReader(table3), &strings.Builder{}); err == nil {
		t.Error("-topk with -maxpatterns accepted")
	}
}

func TestGenerateQuestRoundtrip(t *testing.T) {
	var out, stats strings.Builder
	err := Generate(GenerateConfig{
		Dataset: "quest", Format: "tokens", Seed: 1, Stats: true,
		D: 1, C: 10, N: 1, S: 5,
	}, &out, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats.String(), "sequences") {
		t.Errorf("stats missing:\n%s", stats.String())
	}
	// The generated text must be minable end to end.
	var mined strings.Builder
	if err := Mine(MineConfig{Format: "tokens", MinSup: 50, Top: 5}, strings.NewReader(out.String()), &mined); err != nil {
		t.Fatalf("mining generated data: %v", err)
	}
	if !strings.Contains(mined.String(), "# GSgrow") {
		t.Errorf("mining output:\n%s", mined.String())
	}
}

func TestGenerateAllDatasets(t *testing.T) {
	for _, ds := range []string{"gazelle", "tcas", "jboss"} {
		var out strings.Builder
		err := Generate(GenerateConfig{Dataset: ds, Format: "tokens", Seed: 1, Sequences: 10}, &out, &strings.Builder{})
		if err != nil {
			t.Errorf("%s: %v", ds, err)
			continue
		}
		if lines := strings.Count(out.String(), "\n"); lines != 10 {
			t.Errorf("%s: %d sequences, want 10", ds, lines)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := Generate(GenerateConfig{Dataset: "nope", Format: "tokens"}, &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := Generate(GenerateConfig{Dataset: "quest", Format: "nope", D: 1, C: 5, N: 1, S: 2}, &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Error("unknown format accepted")
	}
	if err := Generate(GenerateConfig{Dataset: "quest", Format: "tokens"}, &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Error("invalid quest params accepted")
	}
}

func TestMineTopKMode(t *testing.T) {
	var out strings.Builder
	err := Mine(MineConfig{Format: "chars", TopK: 3, Closed: true}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "# CloTopK") {
		t.Errorf("missing TopK header:\n%s", text)
	}
	if !strings.Contains(text, "5\tAD") {
		t.Errorf("top closed pattern AD/5 missing:\n%s", text)
	}
	if !strings.Contains(text, "# topk frontier: peak=") {
		t.Errorf("missing frontier stats line:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 5 { // header + frontier stats + 3 patterns
		t.Errorf("want 5 lines, got %d:\n%s", len(lines), text)
	}
}

func TestMineWorkersMode(t *testing.T) {
	var seqOut, parOut strings.Builder
	if err := Mine(MineConfig{Format: "chars", MinSup: 3, Closed: true}, strings.NewReader(table3), &seqOut); err != nil {
		t.Fatal(err)
	}
	if err := Mine(MineConfig{Format: "chars", MinSup: 3, Closed: true, Workers: 4}, strings.NewReader(table3), &parOut); err != nil {
		t.Fatal(err)
	}
	// Same pattern lines (skip the header, which embeds timings).
	trim := func(s string) string {
		lines := strings.Split(strings.TrimSpace(s), "\n")
		return strings.Join(lines[1:], "\n")
	}
	if trim(seqOut.String()) != trim(parOut.String()) {
		t.Errorf("parallel output differs:\n%s\nvs\n%s", seqOut.String(), parOut.String())
	}
}

// TestMineTopKWorkersMode: -topk combined with -workers runs the sharded
// best-first search and prints exactly the sequential output.
func TestMineTopKWorkersMode(t *testing.T) {
	var seqOut, parOut strings.Builder
	if err := Mine(MineConfig{Format: "chars", TopK: 5, Closed: true}, strings.NewReader(table3), &seqOut); err != nil {
		t.Fatal(err)
	}
	if err := Mine(MineConfig{Format: "chars", TopK: 5, Closed: true, Workers: 4}, strings.NewReader(table3), &parOut); err != nil {
		t.Fatal(err)
	}
	// Drop the "#" comment lines: the duration and the frontier/worker
	// stats legitimately differ between sequential and sharded runs.
	trim := func(s string) string {
		var kept []string
		for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
			if !strings.HasPrefix(line, "#") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if trim(seqOut.String()) != trim(parOut.String()) {
		t.Errorf("parallel top-k output differs:\n%s\nvs\n%s", seqOut.String(), parOut.String())
	}
}
