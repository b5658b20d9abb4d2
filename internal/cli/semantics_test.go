package cli

// Smoke tests for the -semantics surface of the mine command: every mode
// runs end to end, prints its algorithm name, and the flag combinations
// the layer must reject fail with an error.

import (
	"strings"
	"testing"
)

func TestMineSemanticsModes(t *testing.T) {
	cases := []struct {
		cfg  MineConfig
		algo string
	}{
		{MineConfig{Format: "chars", MinSup: 2, Semantics: "repetitive"}, "# GSgrow "},
		{MineConfig{Format: "chars", MinSup: 2, Semantics: "nonoverlap"}, "# GSgrow-NonOverlap "},
		{MineConfig{Format: "chars", MinSup: 2, Semantics: "compressed"}, "# CRGSgrow "},
		{MineConfig{Format: "chars", MinSup: 2, Semantics: "gapped", MaxGap: 1}, "# GapGSgrow "},
		{MineConfig{Format: "chars", MinSup: 2, Semantics: "nonoverlap", Workers: 4}, "# GSgrow-NonOverlap "},
		{MineConfig{Format: "chars", MinSup: 2, Semantics: "compressed", CompressDelta: 0.3}, "# CRGSgrow "},
	}
	for _, c := range cases {
		var out strings.Builder
		if err := Mine(c.cfg, strings.NewReader(table3), &out); err != nil {
			t.Errorf("%+v: %v", c.cfg, err)
			continue
		}
		text := out.String()
		if !strings.Contains(text, c.algo) {
			t.Errorf("semantics %q: missing header %q:\n%s", c.cfg.Semantics, c.algo, text)
		}
		if len(strings.Split(strings.TrimSpace(text), "\n")) < 2 {
			t.Errorf("semantics %q: no patterns printed:\n%s", c.cfg.Semantics, text)
		}
	}
	// An omitted semantics string means repetitive: output must be
	// identical to the explicit spelling.
	var implicit, explicit strings.Builder
	if err := Mine(MineConfig{Format: "chars", MinSup: 2}, strings.NewReader(table3), &implicit); err != nil {
		t.Fatal(err)
	}
	if err := Mine(MineConfig{Format: "chars", MinSup: 2, Semantics: "repetitive"}, strings.NewReader(table3), &explicit); err != nil {
		t.Fatal(err)
	}
	if stripDuration(implicit.String()) != stripDuration(explicit.String()) {
		t.Error("explicit repetitive semantics diverges from the default")
	}
}

// stripDuration drops the timing tail of the header line so outputs of
// two runs compare deterministically.
func stripDuration(text string) string {
	lines := strings.SplitN(text, "\n", 2)
	if i := strings.LastIndex(lines[0], " in "); i >= 0 {
		lines[0] = lines[0][:i]
	}
	return strings.Join(lines, "\n")
}

func TestMineSemanticsValidation(t *testing.T) {
	bad := []MineConfig{
		{Format: "chars", MinSup: 2, Semantics: "bogus"},
		{Format: "chars", MinSup: 2, MaxGap: 1},                                 // gaps without gapped
		{Format: "chars", MinSup: 2, CompressDelta: 0.2},                        // delta without compressed
		{Format: "chars", TopK: 3, Semantics: "nonoverlap"},                     // topk is repetitive-only
		{Format: "chars", MinSup: 2, Semantics: "nonoverlap", Closed: true},     // no closure theory
		{Format: "chars", MinSup: 2, Semantics: "gapped", Closed: true},         //
		{Format: "chars", MinSup: 2, Semantics: "gapped", Instances: true},      // no instance sets
		{Format: "chars", MinSup: 2, Semantics: "gapped", MinGap: -1},           // negative gap
		{Format: "chars", MinSup: 2, Semantics: "gapped", MinGap: 2, MaxGap: 1}, // inverted range
	}
	for i, cfg := range bad {
		var out strings.Builder
		if err := Mine(cfg, strings.NewReader(table3), &out); err == nil {
			t.Errorf("case %d (%+v): invalid flags accepted", i, cfg)
		}
	}
}
