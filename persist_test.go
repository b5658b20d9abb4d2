package repro

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestSyncPolicyNames: every policy round-trips through its name, in
// ParseSyncPolicy/String and in JSON, the form the HTTP service reports.
func TestSyncPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		p    SyncPolicy
		name string
	}{{SyncAlways, "always"}, {SyncInterval, "interval"}, {SyncNever, "never"}} {
		if got := tc.p.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.p, got, tc.name)
		}
		if got, err := ParseSyncPolicy(tc.name); err != nil || got != tc.p {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.name, got, err)
		}
		b, err := json.Marshal(tc.p)
		if err != nil || string(b) != `"`+tc.name+`"` {
			t.Errorf("json %v: %s, %v", tc.p, b, err)
		}
		var back SyncPolicy
		if err := json.Unmarshal(b, &back); err != nil || back != tc.p {
			t.Errorf("json round trip of %s: %v, %v", b, back, err)
		}
	}
	var p SyncPolicy
	if err := json.Unmarshal([]byte(`"sometimes"`), &p); err == nil {
		t.Error(`"sometimes" decoded as a policy`)
	}
}

// TestSyncPolicyOutOfRange: a SyncPolicy outside the three policies is
// SyncAlways, in its name and in what a durable database does with it: an
// append is fsynced before it returns.
func TestSyncPolicyOutOfRange(t *testing.T) {
	for _, p := range []SyncPolicy{-1, 3, 99} {
		if got := p.String(); got != "always" {
			t.Errorf("SyncPolicy(%d).String() = %q, want always", int(p), got)
		}
		db, err := Open(filepath.Join(t.TempDir(), "db"), OpenOptions{Sync: p})
		if err != nil {
			t.Fatal(err)
		}
		before := db.Persistence().Fsyncs
		if _, err := db.Append([]Record{{Label: "S1", Events: []string{"A", "B"}}}); err != nil {
			t.Fatal(err)
		}
		got := db.Persistence()
		if got.Sync != SyncAlways || got.Fsyncs == before {
			t.Errorf("SyncPolicy(%d): persistence reports %v with %d fsyncs after an append (was %d), want always and an fsync",
				int(p), got.Sync, got.Fsyncs, before)
		}
		db.Close()
	}
}

// TestPersistenceWire: Persistence encodes as the service's persistence
// object, without the local-only fields.
func TestPersistenceWire(t *testing.T) {
	b, err := json.Marshal(Persistence{
		Durable: true, Role: RolePrimary, Dir: "/x", Sync: SyncInterval, Generation: 9,
		SegmentGeneration: 1, CommitBatches: 2, CommitRecords: 5, FsyncsSaved: 3, Fsyncs: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"role":"primary","syncPolicy":"interval","segmentGeneration":1,"walBytes":0,"walRecords":0,"commitBatches":2,"commitRecords":5,"fsyncsSaved":3}`
	if string(b) != want {
		t.Errorf("persistence json:\n got %s\nwant %s", b, want)
	}
}
