package repro_test

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/cli"
	"repro/internal/server"
)

// TestOptionsValidate: every invalid query is rejected the same way by
// all three surfaces built on repro.Options — the library with a
// sentinel error, the HTTP service with 400, the gsgrow CLI with an
// error — and every valid one is accepted by all three.
func TestOptionsValidate(t *testing.T) {
	const data = "S1: ABCACBDDB\nS2: ACDBACADD\n"
	db, err := repro.Load(strings.NewReader(data), repro.Chars)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/databases/t?format=chars", strings.NewReader(data)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body)
	}

	type opts = repro.Options
	invalid := []struct {
		name string
		opt  opts
		want error
	}{
		{"unknown semantics", opts{MinSupport: 2, Semantics: repro.Semantics(42)}, repro.ErrUnknownSemantics},
		{"no threshold", opts{}, repro.ErrInvalidOptions},
		{"negative topK", opts{TopK: -1, MinSupport: 2}, repro.ErrInvalidOptions},
		{"negative maxPatternLength", opts{MinSupport: 2, MaxPatternLength: -1}, repro.ErrInvalidOptions},
		{"negative maxPatterns", opts{MinSupport: 2, MaxPatterns: -1}, repro.ErrInvalidOptions},
		{"negative workers", opts{MinSupport: 2, Workers: -1}, repro.ErrInvalidOptions},
		{"topK x instances", opts{TopK: 3, CollectInstances: true}, repro.ErrInvalidOptions},
		{"topK x maxPatterns", opts{TopK: 3, MaxPatterns: 5}, repro.ErrInvalidOptions},
		{"topK x nonoverlap", opts{TopK: 3, Semantics: repro.SemanticsNonOverlapping}, repro.ErrInvalidOptions},
		{"topK x compressed", opts{TopK: 3, Semantics: repro.SemanticsCompressed}, repro.ErrInvalidOptions},
		{"topK x gapped", opts{TopK: 3, Semantics: repro.SemanticsGapped}, repro.ErrInvalidOptions},
		{"gaps without gapped", opts{MinSupport: 2, MaxGap: 1}, repro.ErrInvalidOptions},
		{"delta without compressed", opts{MinSupport: 2, CompressDelta: 0.2}, repro.ErrInvalidOptions},
		{"delta out of range", opts{MinSupport: 2, Semantics: repro.SemanticsCompressed, CompressDelta: 1.5}, repro.ErrInvalidOptions},
		{"closed x nonoverlap", opts{MinSupport: 2, Closed: true, Semantics: repro.SemanticsNonOverlapping}, repro.ErrInvalidOptions},
		{"closed x gapped", opts{MinSupport: 2, Closed: true, Semantics: repro.SemanticsGapped}, repro.ErrInvalidOptions},
		{"inverted gap range", opts{MinSupport: 2, Semantics: repro.SemanticsGapped, MinGap: 3, MaxGap: 1}, repro.ErrInvalidOptions},
		{"negative minGap", opts{MinSupport: 2, Semantics: repro.SemanticsGapped, MinGap: -1}, repro.ErrInvalidOptions},
		{"gapped x instances", opts{MinSupport: 2, Semantics: repro.SemanticsGapped, CollectInstances: true}, repro.ErrInvalidOptions},
	}
	for _, c := range invalid {
		if err := c.opt.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", c.name, err, c.want)
		}
		if _, err := db.Mine(c.opt); !errors.Is(err, c.want) {
			t.Errorf("%s: library Mine = %v, want %v", c.name, err, c.want)
		}
		if code := mineStatus(t, h, c.opt); code != http.StatusBadRequest {
			t.Errorf("%s: server answered %d, want 400", c.name, code)
		}
		if err := cli.Mine(mineConfig(c.opt), strings.NewReader(data), &strings.Builder{}); err == nil {
			t.Errorf("%s: CLI accepted it", c.name)
		}
	}

	valid := map[string]opts{
		"GSgrow":            {MinSupport: 2},
		"CloGSgrow":         {MinSupport: 2, Closed: true, Workers: 2},
		"TopK":              {TopK: 3, MinSupport: 7},
		"CloTopK":           {TopK: 3, Closed: true, MaxPatternLength: 2},
		"GSgrow-NonOverlap": {MinSupport: 2, Semantics: repro.SemanticsNonOverlapping, CollectInstances: true},
		"CRGSgrow":          {MinSupport: 2, Semantics: repro.SemanticsCompressed, Closed: true, CompressDelta: 0.3},
		"GapGSgrow":         {MinSupport: 2, Semantics: repro.SemanticsGapped, MinGap: 1, MaxGap: 2, Workers: 2},
	}
	for algo, opt := range valid {
		if got := opt.Algorithm(); got != algo {
			t.Errorf("%+v: Algorithm = %q, want %q", opt, got, algo)
		}
		if _, err := db.Mine(opt); err != nil {
			t.Errorf("%s: library Mine: %v", algo, err)
		}
		if code := mineStatus(t, h, opt); code != http.StatusOK {
			t.Errorf("%s: server answered %d, want 200", algo, code)
		}
		var out strings.Builder
		if err := cli.Mine(mineConfig(opt), strings.NewReader(data), &out); err != nil {
			t.Errorf("%s: CLI: %v", algo, err)
		} else if !strings.HasPrefix(out.String(), "# "+algo+" ") {
			t.Errorf("%s: CLI header %q", algo, strings.SplitN(out.String(), "\n", 2)[0])
		}
	}
}

// mineStatus posts opt, spelled as the service's JSON request, and
// returns the status code.
func mineStatus(t *testing.T, h http.Handler, opt repro.Options) int {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"minSupport": opt.MinSupport, "closed": opt.Closed, "topK": opt.TopK,
		"maxPatternLength": opt.MaxPatternLength, "maxPatterns": opt.MaxPatterns,
		"instances": opt.CollectInstances, "workers": opt.Workers,
		"semantics": opt.Semantics.String(), "minGap": opt.MinGap, "maxGap": opt.MaxGap,
		"compressDelta": opt.CompressDelta,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/databases/t/mine", strings.NewReader(string(body))))
	return rec.Code
}

// mineConfig spells opt as gsgrow flags.
func mineConfig(opt repro.Options) cli.MineConfig {
	return cli.MineConfig{
		Format: "chars", MinSup: opt.MinSupport, Closed: opt.Closed, TopK: opt.TopK,
		MaxLen: opt.MaxPatternLength, MaxPatterns: opt.MaxPatterns, Instances: opt.CollectInstances,
		Workers: opt.Workers, Semantics: opt.Semantics.String(), MinGap: opt.MinGap, MaxGap: opt.MaxGap,
		CompressDelta: opt.CompressDelta,
	}
}

// TestOptionsWireSpelling: Options' JSON tags are the HTTP mine body's
// field names; semantics travel by name; the run-delivery hooks are not
// part of the wire form.
func TestOptionsWireSpelling(t *testing.T) {
	var opt repro.Options
	body := `{"minSupport":3,"closed":false,"topK":0,"maxPatternLength":4,"maxPatterns":9,"instances":false,
		"workers":2,"semantics":"gapped","minGap":1,"maxGap":2,"compressDelta":0,"discardPatterns":true}`
	if err := json.Unmarshal([]byte(body), &opt); err != nil {
		t.Fatal(err)
	}
	want := repro.Options{MinSupport: 3, MaxPatternLength: 4, MaxPatterns: 9, Workers: 2,
		Semantics: repro.SemanticsGapped, MinGap: 1, MaxGap: 2}
	if opt.Canonical() != want.Canonical() || opt.Workers != 2 || opt.DiscardPatterns {
		t.Errorf("decoded %+v, want %+v", opt, want)
	}
	out, err := json.Marshal(repro.Options{MinSupport: 2, Semantics: repro.SemanticsCompressed, CollectInstances: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"semantics":"compressed"`, `"instances":true`, `"minSupport":2`} {
		if !strings.Contains(string(out), field) {
			t.Errorf("encoded %s lacks %s", out, field)
		}
	}
	if strings.Contains(string(out), "Ctx") || strings.Contains(string(out), "OnPattern") || strings.Contains(string(out), "iscard") {
		t.Errorf("run-delivery hooks leaked into the wire form: %s", out)
	}
	for _, bad := range []string{`{"semantics":"bogus"}`, `{"semantics":3}`} {
		if err := json.Unmarshal([]byte(bad), &opt); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
	if err := json.Unmarshal([]byte(`{"semantics":"bogus"}`), &opt); !errors.Is(err, repro.ErrUnknownSemantics) {
		t.Errorf("unknown name: %v, want ErrUnknownSemantics", err)
	}
	if _, err := json.Marshal(repro.Options{Semantics: repro.Semantics(9)}); !errors.Is(err, repro.ErrUnknownSemantics) {
		t.Errorf("encoding an unknown semantics: %v, want ErrUnknownSemantics", err)
	}
	for _, s := range []repro.Semantics{repro.SemanticsRepetitive, repro.SemanticsNonOverlapping, repro.SemanticsCompressed, repro.SemanticsGapped} {
		var back repro.Semantics
		text, err := s.MarshalText()
		if err != nil || back.UnmarshalText(text) != nil || back != s {
			t.Errorf("%v: text round trip gave %v (%v)", s, back, err)
		}
	}
}
