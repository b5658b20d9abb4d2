package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// The wire golden test pins the exact bytes the service encodes: every
// mine representation (buffered JSON, live NDJSON, replayed NDJSON), the
// support point query, and the database, readiness and health reports of
// an in-memory server, a durable primary (healthy and degraded) and a
// follower. The files under
// testdata/ are the contract; a missing file is recorded from the current
// code (and the test fails so the recording is reviewed). To re-record
// after a deliberate wire change, delete the file and run the test twice.
//
// Values that differ from run to run are masked before comparison:
// elapsedMs, created, uptimeSec, lastContact, lagSeconds and the lineage
// epoch always, the top-k frontier figures of parallel runs, and the
// upstream URL and data directory (ephemeral). Live parallel streams emit patterns
// in the order workers find them, so their pattern lines are sorted.

// wireMasks rewrites the run-dependent values of a response body.
var wireMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"elapsedMs":[-+.0-9eE]+`), `"elapsedMs":0`},
	{regexp.MustCompile(`"created":"[^"]*"`), `"created":"*"`},
	{regexp.MustCompile(`"uptimeSec":[-+.0-9eE]+`), `"uptimeSec":0`},
	{regexp.MustCompile(`"lastContact":"[^"]*"`), `"lastContact":"*"`},
	{regexp.MustCompile(`"lagSeconds":[-+.0-9eE]+`), `"lagSeconds":0`},
	{regexp.MustCompile(`"epoch":"[^"]*"`), `"epoch":"*"`},
}

// parallelMasks additionally hide the frontier figures of a parallel
// top-k run, which depend on how the shards interleave.
var parallelMasks = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`"topkFrontierPeak":[0-9]+`), `"topkFrontierPeak":0`},
	{regexp.MustCompile(`"topkArenaBytes":[0-9]+`), `"topkArenaBytes":0`},
}

// wireLog accumulates masked responses in request order.
type wireLog struct {
	buf      bytes.Buffer
	parallel bool
	replace  map[string]string // literal substitutions (ephemeral addresses)
}

func (l *wireLog) add(label string, code int, contentType string, body []byte) {
	for _, m := range wireMasks {
		body = m.re.ReplaceAll(body, []byte(m.repl))
	}
	if l.parallel {
		for _, m := range parallelMasks {
			body = m.re.ReplaceAll(body, []byte(m.repl))
		}
	}
	for from, to := range l.replace {
		body = bytes.ReplaceAll(body, []byte(from), []byte(to))
	}
	fmt.Fprintf(&l.buf, "=== %s\n%d %s\n%s", label, code, contentType, body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		l.buf.WriteByte('\n')
	}
}

// do sends one request to h and logs the response.
func (l *wireLog) do(t *testing.T, h http.Handler, method, path, body string) {
	t.Helper()
	rec := doJSON(t, h, method, path, body)
	l.add(method+" "+path+" "+body, rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes())
}

// get sends one GET to a live server and logs the response.
func (l *wireLog) get(t *testing.T, base, path string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	l.add("GET "+path, resp.StatusCode, resp.Header.Get("Content-Type"), body.Bytes())
}

// sortPatternLines orders the pattern lines of an NDJSON body, keeping the
// summary line last.
func sortPatternLines(body []byte) []byte {
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) < 2 {
		return body
	}
	patterns := lines[:len(lines)-1]
	sort.Strings(patterns)
	return []byte(strings.Join(lines, "\n") + "\n")
}

// checkGolden compares got against testdata/name, recording the file if
// it does not exist.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("recorded %s; review it and run the test again", path)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// withTwoProcs makes GOMAXPROCS at least 2 for the test, so that parallel
// runs report the same effective worker count on any host.
func withTwoProcs(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

func TestWireGoldenMine(t *testing.T) {
	withTwoProcs(t)
	queries := []struct {
		name, body string
		instances  bool // also run with "instances":true
	}{
		{"repetitive", `"minSupport":2`, true},
		{"closed", `"minSupport":2,"closed":true`, true},
		{"nonoverlap", `"minSupport":2,"semantics":"nonoverlap"`, true},
		{"compressed", `"minSupport":2,"semantics":"compressed"`, true},
		{"gapped", `"minSupport":2,"semantics":"gapped","maxGap":1`, true},
		{"topk", `"topK":5`, false},
		{"topk-closed", `"topK":5,"closed":true`, false},
		{"empty", `"minSupport":100`, true},
	}
	// Live streams come from a server without a cache, so every one of
	// them is a mining run.
	live := mustNew(t, Config{CacheSize: -1}).Handler()
	upload(t, live, "ex", "chars", example11)
	for _, q := range queries {
		var log wireLog
		for _, workers := range []int{1, 2} {
			log.parallel = workers > 1
			for _, inst := range []bool{false, true} {
				if inst && !q.instances {
					continue
				}
				body := fmt.Sprintf(`{%s,"workers":%d,"instances":%t}`, q.body, workers, inst)
				stream := strings.TrimSuffix(body, "}") + `,"stream":true}`
				// A fresh server per query shape: the first mine misses,
				// the next two replay the cached result as JSON and NDJSON.
				h := newHandler(t)
				log.do(t, h, "POST", "/v1/databases/ex?format=chars", example11)
				log.do(t, h, "POST", "/v1/databases/ex/mine", body)
				log.do(t, h, "POST", "/v1/databases/ex/mine", body)
				log.do(t, h, "POST", "/v1/databases/ex/mine", stream)
				rec := doJSON(t, live, "POST", "/v1/databases/ex/mine", stream)
				out := rec.Body.Bytes()
				if workers > 1 && !strings.Contains(q.body, "topK") {
					out = sortPatternLines(out)
				}
				log.add("live POST /v1/databases/ex/mine "+stream, rec.Code, rec.Header().Get("Content-Type"), out)
			}
		}
		checkGolden(t, "mine_"+q.name+".golden", log.buf.Bytes())
	}
}

func TestWireGoldenSupport(t *testing.T) {
	var log wireLog
	h := newHandler(t)
	log.do(t, h, "POST", "/v1/databases/ex?format=chars", example11)
	for _, body := range []string{
		`{"pattern":["A","B"]}`,
		`{"pattern":["A","B"],"instances":true}`,
		`{"pattern":["A","B"],"perSequence":true}`,
		`{"pattern":["A","B","D"],"instances":true,"perSequence":true}`,
		`{"pattern":["X"],"instances":true,"perSequence":true}`,
	} {
		log.do(t, h, "POST", "/v1/databases/ex/support", body)
	}
	checkGolden(t, "support.golden", log.buf.Bytes())
}

// wireStatus logs the four status reports of a server.
func wireStatus(t *testing.T, log *wireLog, base string) {
	t.Helper()
	for _, path := range []string{"/v1/databases", "/v1/databases/ex/stats", "/readyz", "/healthz"} {
		log.get(t, base, path)
	}
}

func TestWireGoldenStatus(t *testing.T) {
	appendBody := `{"label":"S3","events":["A","B","C"]}` + "\n"

	t.Run("memory", func(t *testing.T) {
		var log wireLog
		h := newHandler(t)
		log.do(t, h, "POST", "/v1/databases/ex?format=chars", example11)
		log.do(t, h, "POST", "/v1/databases/ex/append", appendBody)
		log.do(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":2}`)
		log.do(t, h, "POST", "/v1/databases/ex/mine", `{"minSupport":2}`)
		for _, path := range []string{"/v1/databases", "/v1/databases/ex/stats", "/readyz", "/healthz"} {
			log.do(t, h, "GET", path, "")
		}
		checkGolden(t, "status_memory.golden", log.buf.Bytes())
	})

	t.Run("degraded", func(t *testing.T) {
		ffs := vfs.NewFaultFS(vfs.OS)
		dir := t.TempDir()
		srv := mustNew(t, faultyConfig(dir, ffs))
		defer srv.Close()
		h := srv.Handler()
		log := wireLog{replace: map[string]string{dir: "/data"}}
		log.do(t, h, "POST", "/v1/databases/ex?format=chars", example11)
		log.do(t, h, "POST", "/v1/databases/ex/append", appendBody)
		ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: ".log", At: -1, Err: syscall.ENOSPC})
		log.do(t, h, "POST", "/v1/databases/ex/append", appendBody)
		for _, path := range []string{"/v1/databases", "/v1/databases/ex/stats", "/readyz"} {
			log.do(t, h, "GET", path, "")
		}
		checkGolden(t, "status_degraded.golden", log.buf.Bytes())
	})

	t.Run("replicated", func(t *testing.T) {
		_, pts := newPrimaryServer(t)
		primary := wireLog{replace: map[string]string{pts.URL: "http://primary"}}
		ph := serverHandler(pts)
		primary.do(t, ph, "POST", "/v1/databases/ex?format=chars", example11)

		_, fts := newFollowerServer(t, pts.URL, Config{})
		waitFollowerGen(t, fts.URL, "ex", 1)
		// One append at a time, each shipped before the next, so the
		// follower's commit counters are the primary's.
		for gen := uint64(2); gen <= 3; gen++ {
			primary.do(t, ph, "POST", "/v1/databases/ex/append", appendBody)
			waitFollowerGen(t, fts.URL, "ex", gen)
		}
		waitFollowerSettled(t, fts.URL)
		wireStatus(t, &primary, pts.URL)
		checkGolden(t, "status_primary.golden", primary.buf.Bytes())

		follower := wireLog{replace: primary.replace}
		wireStatus(t, &follower, fts.URL)
		checkGolden(t, "status_follower.golden", follower.buf.Bytes())
	})
}

// waitFollowerSettled polls the follower's readiness report until its
// tail is connected, error-free and has heard from the primary.
func waitFollowerSettled(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last []byte
	for time.Now().Before(deadline) {
		_, last = httpJSON(t, "GET", url+"/readyz", "")
		s := string(last)
		if strings.Contains(s, `"connected":true`) && strings.Contains(s, `"lastContact"`) &&
			!strings.Contains(s, `"lastError"`) && !strings.Contains(s, `"lagBytes"`) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never settled; last: %s", last)
}
