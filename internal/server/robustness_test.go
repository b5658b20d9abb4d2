package server

import (
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/vfs"
)

// faultyConfig hosts durable databases on a FaultFS with the prober
// parked far in the future, so tests observe the degraded state itself
// rather than racing the heal.
func faultyConfig(dir string, ffs *vfs.FaultFS) Config {
	return Config{
		DataDir: dir,
		Open: repro.OpenOptions{
			Sync:            repro.SyncAlways,
			FS:              ffs,
			ProbeBackoff:    10 * time.Minute,
			ProbeBackoffMax: 10 * time.Minute,
		},
	}
}

// TestDegradedAppendAnswers503MineStillServes is the serving half of the
// degraded-mode contract: after an ENOSPC on the WAL, appends answer 503
// with a Retry-After hint, mining keeps answering 200 from the last
// snapshot, /readyz flips to 503 naming the sick database, and the stats
// persistence block carries the degraded flag and root cause.
func TestDegradedAppendAnswers503MineStillServes(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	srv := mustNew(t, faultyConfig(t.TempDir(), ffs))
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)

	// The disk "fills up": every WAL write from here on fails.
	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: ".log", At: -1, Err: syscall.ENOSPC})

	rr := doJSON(t, h, "POST", "/v1/databases/ex/append", `{"label":"S1","events":["A","B"]}`+"\n")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("append on full disk: %d %s, want 503", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("degraded append carries no Retry-After")
	}
	if !strings.Contains(rr.Body.String(), "degraded") {
		t.Errorf("append error does not name degraded mode: %s", rr.Body)
	}

	// Reads are untouched: mining the pre-failure snapshot answers 200.
	rr = doJSON(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":2}`)
	if rr.Code != http.StatusOK {
		t.Fatalf("mine on degraded database: %d %s, want 200", rr.Code, rr.Body)
	}

	// Readiness drains the node for writes and names the cause.
	rr = doJSON(t, h, "GET", "/readyz", "")
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on degraded host: %d %s, want 503", rr.Code, rr.Body)
	}
	body := rr.Body.String()
	if !strings.Contains(body, `"status":"degraded"`) || !strings.Contains(body, `"name":"ex"`) ||
		!strings.Contains(body, `"ready":false`) {
		t.Errorf("/readyz body does not identify the degraded database: %s", body)
	}

	// Observability: the stats persistence block surfaces the state.
	rr = doJSON(t, h, "GET", "/v1/databases/ex/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rr.Code, rr.Body)
	}
	body = rr.Body.String()
	if !strings.Contains(body, `"degraded":true`) || !strings.Contains(body, "degradedError") {
		t.Errorf("persistence block hides the degraded state: %s", body)
	}

	// Liveness stays green: the process is healthy, the disk is not.
	if rr = doJSON(t, h, "GET", "/healthz", ""); rr.Code != http.StatusOK {
		t.Fatalf("/healthz on degraded host: %d, want 200", rr.Code)
	}
}

// TestProberRestoresServiceAfterSpaceFreed frees the "disk" and asserts
// the background prober flips the database back to writable without any
// operator action: /readyz returns to 200 and appends succeed again.
func TestProberRestoresServiceAfterSpaceFreed(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	cfg := faultyConfig(t.TempDir(), ffs)
	cfg.Open.ProbeBackoff = 2 * time.Millisecond
	cfg.Open.ProbeBackoffMax = 10 * time.Millisecond
	srv := mustNew(t, cfg)
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)

	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: ".log", At: -1, Err: syscall.ENOSPC})
	if rr := doJSON(t, h, "POST", "/v1/databases/ex/append", `{"label":"S1","events":["A"]}`+"\n"); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("append on full disk: %d %s, want 503", rr.Code, rr.Body)
	}

	// Space frees; the next probe cycle should heal the database.
	ffs.ClearFaults()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if rr := doJSON(t, h, "GET", "/readyz", ""); rr.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("prober did not restore readiness within 5s of space freeing")
		}
		time.Sleep(2 * time.Millisecond)
	}
	rr := doJSON(t, h, "POST", "/v1/databases/ex/append", `{"label":"S1","events":["A","B"]}`+"\n")
	if rr.Code != http.StatusOK {
		t.Fatalf("append after heal: %d %s, want 200", rr.Code, rr.Body)
	}
}

// TestMineAdmissionControlSheds429 fills the admission semaphore
// white-box (as if that many mines were in flight) and asserts excess
// requests shed immediately with 429 + Retry-After, then succeed once a
// slot frees.
func TestMineAdmissionControlSheds429(t *testing.T) {
	srv := mustNew(t, Config{MaxConcurrentMines: 1})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)

	srv.mineSem <- struct{}{} // one mine "in flight"
	rr := doJSON(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":2}`)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("mine at capacity: %d %s, want 429", rr.Code, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	<-srv.mineSem // the in-flight mine finishes
	if rr = doJSON(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":2}`); rr.Code != http.StatusOK {
		t.Fatalf("mine after slot freed: %d %s, want 200", rr.Code, rr.Body)
	}

	// A cache hit must bypass admission entirely: fill the semaphore
	// again and replay the now-cached query.
	srv.mineSem <- struct{}{}
	if rr = doJSON(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":2}`); rr.Code != http.StatusOK {
		t.Fatalf("cached mine at capacity: %d %s, want 200 (cache bypasses admission)", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), `"cached":true`) {
		t.Fatalf("expected a cache hit: %s", rr.Body)
	}
	<-srv.mineSem
}

// TestMineTimeoutAnswers503 bounds mining with an unmeetable deadline
// and asserts the run is cut off with a clean 503 naming the timeout —
// not a 200 with silently truncated results.
func TestMineTimeoutAnswers503(t *testing.T) {
	srv := mustNew(t, Config{MineTimeout: time.Nanosecond})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)

	rr := doJSON(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":1}`)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("mine past deadline: %d %s, want 503", rr.Code, rr.Body)
	}
	if !strings.Contains(rr.Body.String(), "timed out") {
		t.Errorf("timeout error does not say so: %s", rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("timeout 503 carries no Retry-After")
	}
}

// TestReadyzHealthyHost: a healthy host (durable or not) is ready.
func TestReadyzHealthyHost(t *testing.T) {
	srv := mustNew(t, Config{})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	rr := doJSON(t, h, "GET", "/readyz", "")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"status":"ready"`) {
		t.Fatalf("/readyz on healthy host: %d %s, want 200 ready", rr.Code, rr.Body)
	}
}
