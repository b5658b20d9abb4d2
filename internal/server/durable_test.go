package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// durableConfig hosts databases in dir with fsync=always.
func durableConfig(dir string) Config {
	return Config{DataDir: dir, Open: repro.OpenOptions{Sync: repro.SyncAlways}}
}

// TestDurableUploadSurvivesRestart uploads and appends against a durable
// server, builds a second server over the same directory (the restart),
// and verifies contents, format, generations, and mining output survive.
func TestDurableUploadSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv1 := mustNew(t, durableConfig(dir))
	h1 := srv1.Handler()

	upload(t, h1, "ex", "chars", example11)
	rr := doJSON(t, h1, "POST", "/v1/databases/ex/append",
		`{"label":"S1","events":["A","B"]}`+"\n"+`{"label":"S3","events":["B","B","A"]}`+"\n")
	if rr.Code != http.StatusOK {
		t.Fatalf("append: %d %s", rr.Code, rr.Body)
	}
	mined1 := doJSON(t, h1, "POST", "/v1/databases/ex/mine", `{"closed":true,"minSupport":2}`)
	if mined1.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", mined1.Code, mined1.Body)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same data dir.
	srv2 := mustNew(t, durableConfig(dir))
	h2 := srv2.Handler()
	defer srv2.Close()

	rr = doJSON(t, h2, "GET", "/v1/databases/ex/stats", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("stats after restart: %d %s", rr.Code, rr.Body)
	}
	var info struct {
		Format             string `json:"format"`
		SnapshotGeneration uint64 `json:"snapshotGeneration"`
		Stats              struct {
			NumSequences int `json:"numSequences"`
		} `json:"stats"`
		Persistence *struct {
			SyncPolicy        string `json:"syncPolicy"`
			SegmentGeneration uint64 `json:"segmentGeneration"`
		} `json:"persistence"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Format != "chars" {
		t.Errorf("recovered format = %q, want chars", info.Format)
	}
	if info.Stats.NumSequences != 3 { // 2 uploaded + 1 appended
		t.Errorf("recovered %d sequences, want 3", info.Stats.NumSequences)
	}
	if info.SnapshotGeneration < 2 {
		t.Errorf("recovered snapshot generation %d, want >= 2 (upload + append)", info.SnapshotGeneration)
	}
	if info.Persistence == nil || info.Persistence.SyncPolicy != "always" {
		t.Errorf("persistence block missing or wrong: %s", rr.Body)
	}

	// Mining the recovered database yields the same patterns.
	mined2 := doJSON(t, h2, "POST", "/v1/databases/ex/mine", `{"closed":true,"minSupport":2}`)
	if mined2.Code != http.StatusOK {
		t.Fatalf("mine after restart: %d %s", mined2.Code, mined2.Body)
	}
	var a, b struct {
		Patterns []repro.Pattern `json:"patterns"`
	}
	if err := json.Unmarshal(mined1.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mined2.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Patterns) == 0 || len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("pattern counts: before %d, after %d", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		if strings.Join(a.Patterns[i].Events, " ") != strings.Join(b.Patterns[i].Events, " ") ||
			a.Patterns[i].Support != b.Patterns[i].Support {
			t.Fatalf("pattern %d diverges after restart: %+v vs %+v", i, a.Patterns[i], b.Patterns[i])
		}
	}
}

// TestDurableReplaceAndEmptyUpload: re-uploading replaces the durable
// files; a rejected (empty) upload must leave the previous database — in
// memory AND on disk — untouched.
func TestDurableReplaceAndEmptyUpload(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, durableConfig(dir))
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)

	// Rejected upload: empty body.
	rr := doJSON(t, h, "POST", "/v1/databases/ex?format=chars", "")
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("empty upload: %d", rr.Code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := mustNew(t, durableConfig(dir))
	defer srv2.Close()
	rr = doJSON(t, srv2.Handler(), "GET", "/v1/databases/ex/stats", "")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"numSequences":2`) {
		t.Fatalf("rejected upload damaged the durable database: %d %s", rr.Code, rr.Body)
	}

	// Replacement upload: different contents win, on disk too.
	upload(t, srv2.Handler(), "ex", "tokens", "T1: x y x y\n")
	srv2.Close()
	srv3 := mustNew(t, durableConfig(dir))
	defer srv3.Close()
	rr = doJSON(t, srv3.Handler(), "GET", "/v1/databases/ex/stats", "")
	if rr.Code != http.StatusOK || !strings.Contains(rr.Body.String(), `"numSequences":1`) ||
		!strings.Contains(rr.Body.String(), `"format":"tokens"`) {
		t.Fatalf("replacement not durable: %d %s", rr.Code, rr.Body)
	}
}

// TestDurableDeleteRemovesFiles: DELETE must remove the directory so a
// restart does not resurrect the database.
func TestDurableDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	srv := mustNew(t, durableConfig(dir))
	h := srv.Handler()
	upload(t, h, "doomed", "chars", example11)
	if _, err := os.Stat(filepath.Join(dir, "doomed")); err != nil {
		t.Fatalf("upload created no directory: %v", err)
	}
	rr := doJSON(t, h, "DELETE", "/v1/databases/doomed", "")
	if rr.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rr.Code, rr.Body)
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed")); !os.IsNotExist(err) {
		t.Fatalf("delete left files behind: %v", err)
	}
	srv.Close()
	srv2 := mustNew(t, durableConfig(dir))
	defer srv2.Close()
	if rr := doJSON(t, srv2.Handler(), "GET", "/v1/databases/doomed/stats", ""); rr.Code != http.StatusNotFound {
		t.Fatalf("deleted database resurrected after restart: %d", rr.Code)
	}
}

// TestInMemoryServerReportsNoPersistence guards the zero-config default:
// no data dir, no persistence block in responses, Close is a no-op.
func TestInMemoryServerReportsNoPersistence(t *testing.T) {
	srv := mustNew(t, Config{})
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	rr := doJSON(t, h, "GET", "/v1/databases/ex/stats", "")
	if strings.Contains(rr.Body.String(), "persistence") {
		t.Fatalf("in-memory server reported persistence: %s", rr.Body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
