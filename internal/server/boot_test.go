package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/repl"
	"repro/internal/vfs"
)

// bootDataDir builds a data dir holding one of each kind of entry the
// boot walk must tell apart, and returns the names of its directories:
//
//	alpha      a primary database (format.meta + data)
//	beta       a replica of upstream (replica.meta + format.meta + data)
//	gamma      data but no format.meta (not created by the server)
//	delta      format.meta but an empty database
//	stray      a plain file
func bootDataDir(t *testing.T, upstream string) string {
	t.Helper()
	root := t.TempDir()
	create := func(name, format string) string {
		dir := filepath.Join(root, name)
		f, err := repro.ParseFormat(format)
		if err != nil {
			t.Fatal(err)
		}
		db, err := repro.Create(dir, strings.NewReader(example11), f, repro.OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	writeMeta := func(dir, format string) {
		if err := os.WriteFile(filepath.Join(dir, formatMetaFile), []byte(format+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeMeta(create("alpha", "chars"), "chars")
	beta := create("beta", "chars")
	writeMeta(beta, "chars")
	if err := repl.WriteMeta(vfs.OS, beta, repl.Meta{Upstream: upstream, Database: "beta", Epoch: "e1"}); err != nil {
		t.Fatal(err)
	}
	create("gamma", "chars")
	delta := filepath.Join(root, "delta")
	empty, err := repro.Open(delta, repro.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Close(); err != nil {
		t.Fatal(err)
	}
	writeMeta(delta, "tokens")
	if err := os.WriteFile(filepath.Join(root, "stray"), []byte("not a database\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// dirListing names the files of dir, sorted.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestBootWalk boots the same data dir as a primary and as a follower
// and checks which databases are served, in which role, and that the
// walk plants no files in directories it does not serve.
func TestBootWalk(t *testing.T) {
	// A primary that is gone: the follower must boot from local state.
	gone := httptest.NewServer(http.NotFoundHandler())
	upstream := gone.URL
	gone.Close()

	for _, tc := range []struct {
		mode     string
		follower bool
		want     map[string]string // served name -> replication role
		skipLog  bool              // "beta" is skipped with a log line
	}{
		{mode: "primary", want: map[string]string{"alpha": "primary"}, skipLog: true},
		{mode: "follower", follower: true, want: map[string]string{"alpha": "primary", "beta": "follower"}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			root := bootDataDir(t, upstream)
			gammaBefore := dirListing(t, filepath.Join(root, "gamma"))
			var (
				mu   sync.Mutex
				logs []string
			)
			cfg := Config{DataDir: root, Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				logs = append(logs, format)
			}}
			if tc.follower {
				cfg.ReplicateFrom = upstream
			}
			srv := mustNew(t, cfg)
			defer srv.Close()

			rr := doJSON(t, srv.Handler(), "GET", "/v1/databases", "")
			if rr.Code != http.StatusOK {
				t.Fatalf("list: %d %s", rr.Code, rr.Body)
			}
			var body struct {
				Databases []struct {
					Name        string `json:"name"`
					Replication *struct {
						Role string `json:"role"`
					} `json:"replication"`
				} `json:"databases"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, d := range body.Databases {
				role := ""
				if d.Replication != nil {
					role = d.Replication.Role
				}
				got[d.Name] = role
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("served %v, want %v", got, tc.want)
			}

			mu.Lock()
			skipped := false
			for _, l := range logs {
				if strings.Contains(l, "is a replica directory; skipped") {
					skipped = true
				}
			}
			mu.Unlock()
			if skipped != tc.skipLog {
				t.Errorf("replica skip logged = %v, want %v", skipped, tc.skipLog)
			}
			if after := dirListing(t, filepath.Join(root, "gamma")); !reflect.DeepEqual(after, gammaBefore) {
				t.Errorf("boot changed a directory it does not serve: %v -> %v", gammaBefore, after)
			}
		})
	}
}
