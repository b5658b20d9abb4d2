package cli

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/repl"
	"repro/internal/vfs"
)

// buildDurableDB populates a durable database directory: 3 appends on
// top of an initial Create, auto-checkpoint disabled so the WAL holds
// all three batches.
func buildDurableDB(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := repro.Create(dir, strings.NewReader("S1: AABCDABB\nS2: ABCD\n"), repro.Tokens,
		repro.OpenOptions{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Append([]repro.Record{{Label: "S1", Events: []string{"A", "B"}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestInspectReportsSegmentsAndWAL(t *testing.T) {
	dir := buildDurableDB(t)
	var out strings.Builder
	if err := Inspect(dir, false, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"segment gen=1",
		"wal     base=1",
		"3 records",
		"recovers to: generation 4 (checkpoint 1 + 3 WAL batches), 2 sequences",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("inspect output missing %q:\n%s", want, got)
		}
	}
}

func TestInspectReportsTornTail(t *testing.T) {
	dir := buildDurableDB(t)
	// Tear the WAL: chop the last 3 bytes off the newest frame.
	walPath := filepath.Join(dir, "wal-0000000000000001.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = Inspect(dir, false, &out)
	// A torn tail is recoverable damage: the report must still print in
	// full, but the exit status must flag it for monitoring.
	if err == nil || !strings.Contains(err.Error(), "damage") {
		t.Fatalf("inspect of a torn WAL returned %v, want a storage-damage error", err)
	}
	got := out.String()
	if !strings.Contains(got, "torn tail") || !strings.Contains(got, "2 records") {
		t.Errorf("inspect did not report the torn tail:\n%s", got)
	}
	if !strings.Contains(got, "recovers to: generation 3") {
		t.Errorf("inspect recovery summary must drop the torn batch:\n%s", got)
	}
}

// TestInspectJSON: -json emits the machine-readable report, healthy
// directories exit zero, and damage still turns into a nonzero exit with
// the report intact.
func TestInspectJSON(t *testing.T) {
	dir := buildDurableDB(t)
	var out strings.Builder
	if err := Inspect(dir, true, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Segments []struct {
			Generation uint64 `json:"generation"`
		} `json:"segments"`
		WALs []struct {
			Records int  `json:"records"`
			Torn    bool `json:"torn"`
		} `json:"wals"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("inspect -json is not valid JSON: %v\n%s", err, out.String())
	}
	if len(rep.Segments) != 1 || rep.Segments[0].Generation != 1 ||
		len(rep.WALs) != 1 || rep.WALs[0].Records != 3 || rep.Generation != 4 {
		t.Errorf("inspect -json report: %s", out.String())
	}

	// Tear the WAL: the JSON report flags it and the exit goes nonzero.
	walPath := filepath.Join(dir, "wal-0000000000000001.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := Inspect(dir, true, &out); err == nil {
		t.Fatal("inspect -json of a torn WAL must return an error")
	}
	if !strings.Contains(out.String(), `"torn": true`) {
		t.Errorf("JSON report does not flag the torn tail: %s", out.String())
	}
}

func TestInspectMissingDirErrors(t *testing.T) {
	if err := Inspect(filepath.Join(t.TempDir(), "nope"), false, &strings.Builder{}); err == nil {
		t.Fatal("inspect of a missing directory must error")
	}
}

func TestCompactTruncatesWAL(t *testing.T) {
	dir := buildDurableDB(t)
	var out strings.Builder
	if err := Compact(dir, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "generation 4 checkpointed") || !strings.Contains(out.String(), "-> 0 B") {
		t.Errorf("compact output: %s", out.String())
	}

	// After compaction: one segment at gen 4, empty WAL, same contents.
	var insp strings.Builder
	if err := Inspect(dir, false, &insp); err != nil {
		t.Fatal(err)
	}
	got := insp.String()
	if !strings.Contains(got, "segment gen=4") || strings.Contains(got, "segment gen=1") {
		t.Errorf("compact did not install the new segment:\n%s", got)
	}
	if !strings.Contains(got, "recovers to: generation 4 (checkpoint 4 + 0 WAL batches), 2 sequences") {
		t.Errorf("post-compact recovery summary:\n%s", got)
	}

	db, err := repro.Open(dir, repro.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.NumSequences() != 2 || db.Snapshot().Support([]string{"A", "B"}) == 0 {
		t.Fatalf("compacted database lost data: %d sequences", db.NumSequences())
	}
}

// TestPromoteAndInspectReplication: inspect reports a replica directory's
// role, upstream, and epoch (text and -json); promote strips the marker,
// after which the directory is a writable primary and inspect agrees.
func TestPromoteAndInspectReplication(t *testing.T) {
	dir := buildDurableDB(t)
	meta := repl.Meta{Upstream: "http://primary:8372", Database: "events", Epoch: "abc123"}
	if err := repl.WriteMeta(vfs.OS, dir, meta); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := Inspect(dir, false, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `replica of http://primary:8372 (database "events", epoch abc123)`) {
		t.Errorf("inspect of a replica dir missing the replication line:\n%s", out.String())
	}

	out.Reset()
	if err := Inspect(dir, true, &out); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Replication *replicationReport `json:"replication"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Replication == nil || rep.Replication.Role != repro.RoleFollower ||
		rep.Replication.Upstream != meta.Upstream || rep.Replication.Database != meta.Database ||
		rep.Replication.Epoch != meta.Epoch {
		t.Errorf("inspect -json replication block: %+v", rep.Replication)
	}

	out.Reset()
	if err := Promote(dir, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "promoted to primary at generation 4") {
		t.Errorf("promote output: %s", out.String())
	}
	// Promoting an ordinary primary is an error, not a silent no-op.
	if err := Promote(dir, &strings.Builder{}); err == nil {
		t.Fatal("promote of a non-replica directory must error")
	}

	out.Reset()
	if err := Inspect(dir, true, &out); err != nil {
		t.Fatal(err)
	}
	rep.Replication = nil
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Replication == nil || rep.Replication.Role != repro.RolePrimary {
		t.Errorf("post-promote replication block: %+v", rep.Replication)
	}

	// The promoted directory accepts writes.
	db, err := repro.Open(dir, repro.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Append([]repro.Record{{Label: "S3", Events: []string{"X"}}}); err != nil {
		t.Fatalf("append to promoted directory: %v", err)
	}
}
