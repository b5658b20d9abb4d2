package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// newPrimaryServer starts a durable primary with fast replication
// cadences and group commit on.
func newPrimaryServer(t *testing.T) (*Server, *testServer) {
	t.Helper()
	s := mustNew(t, Config{
		DataDir: t.TempDir(),
		Open:    repro.OpenOptions{Sync: repro.SyncAlways},
		Logf:    t.Logf,
		tuning:  replTuning{poll: time.Millisecond, heartbeat: 20 * time.Millisecond},
	})
	ts := startTestServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// testServer is an httptest server whose request contexts derive from a
// cancellable base context, as cli.ServeMain's derive from its signal
// context. Close cancels that context first: a live WAL stream
// (repl.Feed.ServeWAL) ends only when its context does, and
// httptest.Server.Close waits for active requests, so a follower that
// reconnected just before Close would otherwise keep it waiting forever.
type testServer struct {
	*httptest.Server
	cancel context.CancelFunc
}

func startTestServer(h http.Handler) *testServer {
	ctx, cancel := context.WithCancel(context.Background())
	ts := httptest.NewUnstartedServer(h)
	ts.Config.BaseContext = func(net.Listener) context.Context { return ctx }
	ts.Start()
	return &testServer{ts, cancel}
}

// Close ends every request's context, then shuts the server down.
func (ts *testServer) Close() {
	ts.cancel()
	ts.Server.Close()
}

// newFollowerServer starts a follower-mode server replicating from
// upstream, with millisecond cadences so tests converge fast.
func newFollowerServer(t *testing.T, upstream string, cfg Config) (*Server, *testServer) {
	t.Helper()
	cfg.ReplicateFrom = upstream
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	cfg.tuning = replTuning{managerPoll: 5 * time.Millisecond, backoff: time.Millisecond, backoffMax: 20 * time.Millisecond}
	cfg.Logf = t.Logf
	s := mustNew(t, cfg)
	ts := startTestServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func httpJSON(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// waitFollowerGen polls the follower server until database name exists
// and reports the wanted snapshot generation.
func waitFollowerGen(t *testing.T, url, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last []byte
	for time.Now().Before(deadline) {
		code, body := httpJSON(t, "GET", url+"/v1/databases/"+name+"/stats", "")
		last = body
		if code == http.StatusOK {
			var info dbInfo
			if err := json.Unmarshal(body, &info); err == nil && info.SnapshotGeneration == want {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never reached generation %d for %q; last: %s", want, name, last)
}

// TestReplicationE2E is the acceptance test: a primary taking concurrent
// group-commit appends, a follower server that bootstraps and tails it,
// byte-identical mining output on both after quiesce, and 409 on
// follower writes. Run under -race in CI.
func TestReplicationE2E(t *testing.T) {
	primary, pts := newPrimaryServer(t)
	_ = primary
	upload(t, serverHandler(pts), "ev", "chars", example11)

	follower, fts := newFollowerServer(t, pts.URL, Config{})
	_ = follower

	// Concurrent appends through the primary's HTTP API while the
	// follower tails: group commit coalesces these into shared fsyncs.
	const writers, perWriter = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				body := fmt.Sprintf(`{"label":"W%d","events":["a","b","w%d"]}`, w, i)
				code, resp := httpJSON(t, "POST", pts.URL+"/v1/databases/ev/append", body)
				if code != http.StatusOK {
					t.Errorf("append: status %d: %s", code, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesce: follower reaches the primary's exact generation.
	_, statsBody := httpJSON(t, "GET", pts.URL+"/v1/databases/ev/stats", "")
	var pinfo dbInfo
	if err := json.Unmarshal(statsBody, &pinfo); err != nil {
		t.Fatal(err)
	}
	waitFollowerGen(t, fts.URL, "ev", pinfo.SnapshotGeneration)

	// Byte-identical mining output: full mine and top-k.
	for _, req := range []string{
		`{"minSupport":2}`,
		`{"minSupport":2,"closed":true}`,
		`{"topK":5}`,
	} {
		codeP, bodyP := httpJSON(t, "POST", pts.URL+"/v1/databases/ev/mine", req)
		codeF, bodyF := httpJSON(t, "POST", fts.URL+"/v1/databases/ev/mine", req)
		if codeP != http.StatusOK || codeF != http.StatusOK {
			t.Fatalf("mine %s: primary %d, follower %d: %s", req, codeP, codeF, bodyF)
		}
		var mp, mf mineResponse
		if err := json.Unmarshal(bodyP, &mp); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyF, &mf); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", mp.Patterns) != fmt.Sprintf("%+v", mf.Patterns) {
			t.Fatalf("mine %s diverged:\nprimary:  %+v\nfollower: %+v", req, mp.Patterns, mf.Patterns)
		}
	}

	// Follower rejects writes with 409 pointing at the primary.
	code, body := httpJSON(t, "POST", fts.URL+"/v1/databases/ev/append", `{"events":["x"]}`)
	if code != http.StatusConflict || !strings.Contains(string(body), pts.URL) {
		t.Fatalf("follower append: status %d body %s", code, body)
	}
	code, body = httpJSON(t, "POST", fts.URL+"/v1/databases/ev?format=chars", example11)
	if code != http.StatusConflict {
		t.Fatalf("follower upload: status %d body %s", code, body)
	}
	code, body = httpJSON(t, "DELETE", fts.URL+"/v1/databases/ev", "")
	if code != http.StatusConflict {
		t.Fatalf("follower delete: status %d body %s", code, body)
	}

	// Follower /readyz reports the replication block.
	code, body = httpJSON(t, "GET", fts.URL+"/readyz", "")
	if code != http.StatusOK {
		t.Fatalf("follower readyz: status %d body %s", code, body)
	}
	var ready readyResponse
	if err := json.Unmarshal(body, &ready); err != nil {
		t.Fatal(err)
	}
	if len(ready.Databases) != 1 || ready.Databases[0].Role != repro.RoleFollower ||
		ready.Databases[0].Replication == nil {
		t.Fatalf("follower readyz: %s", body)
	}
}

// serverHandler adapts an httptest.Server back into an http.Handler for
// the shared upload helper.
func serverHandler(ts *testServer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, ts.URL+r.URL.String(), r.Body)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	})
}

// TestReplicationReuploadAndDelete exercises the manager's reconcile
// loop: a re-upload (new epoch) makes the follower re-bootstrap onto the
// new lineage, and a delete on the primary drops the replica.
func TestReplicationReuploadAndDelete(t *testing.T) {
	_, pts := newPrimaryServer(t)
	h := serverHandler(pts)
	upload(t, h, "ev", "chars", example11)

	_, fts := newFollowerServer(t, pts.URL, Config{})
	waitFollowerGen(t, fts.URL, "ev", 1)

	// Replace the database wholesale: different contents, new epoch.
	upload(t, h, "ev", "chars", "S1: XYXY\nS2: YX\n")
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := httpJSON(t, "GET", fts.URL+"/v1/databases/ev/stats", "")
		if code == http.StatusOK {
			var info dbInfo
			if err := json.Unmarshal(body, &info); err == nil &&
				info.Stats.DistinctEvents == 2 && info.Stats.TotalLength == 6 {
				break
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("follower never picked up the re-upload; last: %s", body)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Delete on the primary propagates: the replica drops out.
	if code, body := httpJSON(t, "DELETE", pts.URL+"/v1/databases/ev", ""); code != http.StatusNoContent {
		t.Fatalf("primary delete: status %d body %s", code, body)
	}
	for {
		code, _ := httpJSON(t, "GET", fts.URL+"/v1/databases/ev/stats", "")
		if code == http.StatusNotFound {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("follower never dropped the deleted database")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestReplicationPromote promotes a replica over HTTP: writes start
// succeeding locally, the role flips, and the manager leaves the
// promoted database alone even though the upstream still lists it.
func TestReplicationPromote(t *testing.T) {
	_, pts := newPrimaryServer(t)
	upload(t, serverHandler(pts), "ev", "chars", example11)

	fsrv, fts := newFollowerServer(t, pts.URL, Config{})
	waitFollowerGen(t, fts.URL, "ev", 1)

	code, body := httpJSON(t, "POST", fts.URL+"/v1/replication/ev/promote", "")
	if code != http.StatusOK {
		t.Fatalf("promote: status %d body %s", code, body)
	}
	var pr struct {
		Role  string `json:"role"`
		Epoch string `json:"epoch"`
	}
	if err := json.Unmarshal(body, &pr); err != nil || pr.Role != repro.RolePrimary || pr.Epoch == "" {
		t.Fatalf("promote response: %s (err %v)", body, err)
	}
	// Promoting twice conflicts.
	if code, _ := httpJSON(t, "POST", fts.URL+"/v1/replication/ev/promote", ""); code != http.StatusConflict {
		t.Fatalf("second promote: status %d", code)
	}
	// Writes succeed locally now.
	code, body = httpJSON(t, "POST", fts.URL+"/v1/databases/ev/append", `{"label":"S9","events":["q","q"]}`)
	if code != http.StatusOK {
		t.Fatalf("append after promote: status %d body %s", code, body)
	}
	// Give the manager a few cycles: it must not demote or drop the
	// promoted database.
	time.Sleep(50 * time.Millisecond)
	code, body = httpJSON(t, "GET", fts.URL+"/v1/databases/ev/stats", "")
	var info dbInfo
	if code != http.StatusOK || json.Unmarshal(body, &info) != nil {
		t.Fatalf("stats after promote: status %d body %s", code, body)
	}
	if info.Persistence == nil || info.Persistence.Role != repro.RolePrimary {
		t.Fatalf("role after promote: %s", body)
	}
	if e, ok := fsrv.get("ev"); !ok || e.replica != nil {
		t.Fatal("promoted entry still has a replica tailer")
	}
}

// TestReplicationLagGate flips /readyz once the follower falls out of
// contact for longer than MaxLag: the primary goes away, heartbeats
// stop, and the follower reports itself not ready.
func TestReplicationLagGate(t *testing.T) {
	_, pts := newPrimaryServer(t)
	upload(t, serverHandler(pts), "ev", "chars", example11)

	_, fts := newFollowerServer(t, pts.URL, Config{MaxLag: 50 * time.Millisecond})
	waitFollowerGen(t, fts.URL, "ev", 1)

	// Healthy and in contact: ready.
	code, body := httpJSON(t, "GET", fts.URL+"/readyz", "")
	if code != http.StatusOK {
		t.Fatalf("readyz while healthy: status %d body %s", code, body)
	}

	// Kill the primary; contact stops; the gate must flip within a few
	// heartbeat intervals.
	pts.CloseClientConnections()
	pts.Close() // cancels a stream the follower reopened in between
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, body = httpJSON(t, "GET", fts.URL+"/readyz", "")
		if code == http.StatusServiceUnavailable {
			var ready readyResponse
			if err := json.Unmarshal(body, &ready); err != nil {
				t.Fatal(err)
			}
			if ready.Status != "lagging" || len(ready.Databases) != 1 || ready.Databases[0].Ready {
				t.Fatalf("lagging readyz body: %s", body)
			}
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("readyz never flipped after primary loss; last: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationFollowerRestartResumes restarts a follower server over
// its data dir and asserts it resumes from the local position (no
// re-bootstrap) and keeps tailing.
func TestReplicationFollowerRestartResumes(t *testing.T) {
	_, pts := newPrimaryServer(t)
	h := serverHandler(pts)
	upload(t, h, "ev", "chars", example11)

	fdir := t.TempDir()
	fsrv1, fts1 := newFollowerServer(t, pts.URL, Config{DataDir: fdir})
	waitFollowerGen(t, fts1.URL, "ev", 1)
	fts1.Close()
	if err := fsrv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Appends land while the follower is down.
	if code, body := httpJSON(t, "POST", pts.URL+"/v1/databases/ev/append", `{"label":"S3","events":["z","z"]}`); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, body)
	}

	fsrv2, fts2 := newFollowerServer(t, pts.URL, Config{DataDir: fdir})
	waitFollowerGen(t, fts2.URL, "ev", 2)
	e, ok := fsrv2.get("ev")
	if !ok || e.replica == nil {
		t.Fatal("restarted follower did not recover the replica")
	}
	if got := e.replica.Status().Bootstraps; got != 0 {
		t.Fatalf("restart bootstrapped %d times, want 0 (resume)", got)
	}
}
