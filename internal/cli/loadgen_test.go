package cli

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

func loadgenServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestLoadgenTopK(t *testing.T) {
	ts := loadgenServer(t)
	cfg := LoadgenConfig{
		Addr: ts.URL, DB: "bench", Requests: 1, Concurrency: 1,
		TopK: 3, Closed: true, Workers: 2, Format: "chars",
	}
	// Upload and prime the cache with one request first: concurrent
	// clients racing to the first mine would each miss.
	var out strings.Builder
	if err := Loadgen(context.Background(), cfg, strings.NewReader(table3), &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if text := out.String(); !strings.Contains(text, `uploaded chars as database "bench"`) {
		t.Errorf("upload not reported:\n%s", text)
	}
	out.Reset()
	cfg.Requests, cfg.Concurrency = 12, 3
	if err := Loadgen(context.Background(), cfg, nil, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "loadgen: 12 ok (12 cached), 0 errors") {
		t.Errorf("summary wrong (identical top-k requests should hit the primed cache):\n%s", text)
	}
	if !strings.Contains(text, "p99=") {
		t.Errorf("latency percentiles missing:\n%s", text)
	}
}

func TestLoadgenMinSup(t *testing.T) {
	ts := loadgenServer(t)
	var out strings.Builder
	err := Loadgen(context.Background(), LoadgenConfig{
		Addr: ts.URL, DB: "bench", Requests: 4, Concurrency: 2,
		MinSup: 3, Format: "chars",
	}, strings.NewReader(table3), &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "loadgen: 4 ok") {
		t.Errorf("summary wrong:\n%s", out.String())
	}
}

func TestLoadgenErrors(t *testing.T) {
	ts := loadgenServer(t)
	// No database uploaded: every request 404s and the run reports failure.
	var out strings.Builder
	err := Loadgen(context.Background(), LoadgenConfig{
		Addr: ts.URL, DB: "missing", Requests: 2, Concurrency: 1, TopK: 3,
	}, nil, &out)
	if err == nil || !strings.Contains(err.Error(), "requests failed") {
		t.Errorf("missing database not reported: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "first error: status 404") {
		t.Errorf("first error line missing:\n%s", out.String())
	}

	// Config validation.
	if err := Loadgen(context.Background(), LoadgenConfig{Addr: ts.URL, DB: "x"}, nil, &out); err == nil {
		t.Error("neither -topk nor -minsup accepted")
	}
	if err := Loadgen(context.Background(), LoadgenConfig{Addr: ts.URL, DB: "x", TopK: 1, MinSup: 1}, nil, &out); err == nil {
		t.Error("both -topk and -minsup accepted")
	}
	if err := Loadgen(context.Background(), LoadgenConfig{DB: "x", TopK: 1}, nil, &out); err == nil {
		t.Error("missing addr accepted")
	}
	if err := Loadgen(context.Background(), LoadgenConfig{Addr: ts.URL, TopK: 1}, nil, &out); err == nil {
		t.Error("missing db accepted")
	}
}

func TestLoadgenDuration(t *testing.T) {
	ts := loadgenServer(t)
	var up strings.Builder
	if err := Loadgen(context.Background(), LoadgenConfig{
		Addr: ts.URL, DB: "bench", Requests: 1, Concurrency: 1, TopK: 2, Format: "chars",
	}, strings.NewReader(table3), &up); err != nil {
		t.Fatal(err)
	}
	// A huge request budget with a tiny duration must stop on the clock,
	// not run all requests, and a deadline stop is not an error.
	var out strings.Builder
	err := Loadgen(context.Background(), LoadgenConfig{
		Addr: ts.URL, DB: "bench", Requests: 1_000_000, Concurrency: 2,
		Duration: 50 * time.Millisecond, TopK: 2,
	}, nil, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "loadgen: ") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}
