package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

const example11 = "S1: AABCDABB\nS2: ABCD\n"

// denseTokens returns a random tokens-format database whose all-pattern
// mine at min_sup=2 is large (hundreds of thousands of patterns), for
// cancellation and parity tests.
func denseTokens(seqs, length int) string {
	r := rand.New(rand.NewSource(7))
	al := []string{"a", "b", "c", "d", "e"}
	var sb strings.Builder
	for i := 0; i < seqs; i++ {
		for j := 0; j < length; j++ {
			sb.WriteString(al[r.Intn(len(al))])
			sb.WriteByte(' ')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func newHandler(t *testing.T) http.Handler {
	t.Helper()
	return mustNew(t, Config{}).Handler()
}

func doJSON(t *testing.T, h http.Handler, method, path string, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func upload(t *testing.T, h http.Handler, name, format, body string) dbInfo {
	t.Helper()
	rec := doJSON(t, h, "POST", "/v1/databases/"+name+"?format="+format, body)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload %s: status %d: %s", name, rec.Code, rec.Body)
	}
	var info dbInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("upload %s: decode: %v", name, err)
	}
	return info
}

func mineJSON(t *testing.T, h http.Handler, name, reqBody string) mineResponse {
	t.Helper()
	rec := doJSON(t, h, "POST", "/v1/databases/"+name+"/mine", reqBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("mine %s: status %d: %s", name, rec.Code, rec.Body)
	}
	var resp mineResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("mine %s: decode: %v", name, err)
	}
	return resp
}

func TestUploadListStatsDelete(t *testing.T) {
	h := newHandler(t)

	info := upload(t, h, "ex11", "chars", example11)
	if info.Name != "ex11" || info.Generation != 1 || info.Stats.NumSequences != 2 {
		t.Fatalf("upload info: %+v", info)
	}
	upload(t, h, "traces", "tokens", "T1: open auth close\nT2: open close\n")

	rec := doJSON(t, h, "GET", "/v1/databases", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	var list struct {
		Databases []dbInfo `json:"databases"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Databases) != 2 || list.Databases[0].Name != "ex11" || list.Databases[1].Name != "traces" {
		t.Fatalf("list: %+v", list)
	}

	rec = doJSON(t, h, "GET", "/v1/databases/ex11/stats", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"numSequences":2`) {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}

	// Re-upload bumps the generation (server-global counter: ex11 was 1,
	// traces took 2, so the replacement gets 3).
	rec = doJSON(t, h, "POST", "/v1/databases/ex11?format=chars", example11)
	if rec.Code != http.StatusCreated || !strings.Contains(rec.Body.String(), `"generation":3`) {
		t.Fatalf("re-upload: %d %s", rec.Code, rec.Body)
	}

	rec = doJSON(t, h, "DELETE", "/v1/databases/traces", "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"DELETE", "/v1/databases/traces", "", http.StatusNotFound},
		{"GET", "/v1/databases/traces/stats", "", http.StatusNotFound},
		{"POST", "/v1/databases/traces/mine", `{"minSupport":2}`, http.StatusNotFound},
		{"POST", "/v1/databases/bad%20name%21?format=chars", "AB\n", http.StatusBadRequest},
		{"POST", "/v1/databases/x?format=nope", "AB\n", http.StatusBadRequest},
		{"POST", "/v1/databases/x?format=spmf", "not spmf\n", http.StatusBadRequest},
		{"POST", "/v1/databases/x?format=tokens", "# only a comment\n", http.StatusBadRequest},
		{"POST", "/v1/databases/ex11/mine", `{"minSupport":0}`, http.StatusBadRequest},
		{"POST", "/v1/databases/ex11/mine", `{"minSupport":2,"workers":-1}`, http.StatusBadRequest},
		{"POST", "/v1/databases/ex11/mine", `{"topK":3,"instances":true}`, http.StatusBadRequest},
		{"POST", "/v1/databases/ex11/mine", `{"topK":3,"maxPatterns":5}`, http.StatusBadRequest},
		{"POST", "/v1/databases/ex11/support", `{"pattern":[]}`, http.StatusBadRequest},
	} {
		rec := doJSON(t, h, tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.want, rec.Body)
		}
	}
}

// expectedPatterns computes the reference response payload through the
// library directly, bypassing the server entirely.
func expectedPatterns(t *testing.T, dbText string, format repro.Format, opt repro.Options, closed bool) []repro.Pattern {
	t.Helper()
	db, err := repro.Load(strings.NewReader(dbText), format)
	if err != nil {
		t.Fatal(err)
	}
	var res *repro.Result
	if closed {
		res, err = db.MineClosed(opt)
	} else {
		res, err = db.Mine(opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Patterns
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMineParityWithLibrary(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	resp := mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2,"instances":true}`)
	if resp.Algorithm != "CloGSgrow" || resp.Truncated || resp.Cached {
		t.Fatalf("summary: %+v", resp.mineSummary)
	}
	want := expectedPatterns(t, example11, repro.Chars,
		repro.Options{MinSupport: 2, CollectInstances: true}, true)
	if got, exp := mustJSON(t, resp.Patterns), mustJSON(t, want); !bytes.Equal(got, exp) {
		t.Errorf("server patterns differ from direct MineClosed:\n got %s\nwant %s", got, exp)
	}
	if resp.NumPatterns != len(want) {
		t.Errorf("numPatterns = %d, want %d", resp.NumPatterns, len(want))
	}

	// Top-k mode against the library's MineTopK.
	respK := mineJSON(t, h, "ex11", `{"topK":3,"closed":true}`)
	if respK.Algorithm != "CloTopK" {
		t.Fatalf("topk summary: %+v", respK.mineSummary)
	}
	// The arena-backed frontier surfaces its footprint in the summary.
	if respK.TopKFrontierPeak <= 0 || respK.TopKArenaBytes <= 0 {
		t.Errorf("topk summary missing frontier stats: %+v", respK.mineSummary)
	}
	if respK.EffectiveWorkers < 1 {
		t.Errorf("topk summary missing effectiveWorkers: %+v", respK.mineSummary)
	}
	db, err := repro.Load(strings.NewReader(example11), repro.Chars)
	if err != nil {
		t.Fatal(err)
	}
	topk, err := db.MineTopK(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := mustJSON(t, respK.Patterns), mustJSON(t, topk.Patterns); !bytes.Equal(got, exp) {
		t.Errorf("server top-k differs from direct MineTopK:\n got %s\nwant %s", got, exp)
	}
}

func TestMineWorkersParity(t *testing.T) {
	dbText := denseTokens(6, 30)
	h := newHandler(t)
	upload(t, h, "dense", "tokens", dbText)

	seqResp := mineJSON(t, h, "dense", `{"closed":true,"minSupport":3}`)
	parResp := mineJSON(t, h, "dense", `{"closed":true,"minSupport":3,"workers":4}`)
	if parResp.Cached {
		// Workers is excluded from the cache key on purpose; equality with
		// the cached sequential result is exactly the parity claim, but make
		// sure at least one run actually exercised the parallel path.
		t.Log("parallel response served from cache of sequential run")
	}
	if got, exp := mustJSON(t, parResp.Patterns), mustJSON(t, seqResp.Patterns); !bytes.Equal(got, exp) {
		t.Error("parallel mine differs from sequential mine")
	}

	// Force a cache miss for the parallel run via a distinct database name,
	// then compare across databases with identical content.
	upload(t, h, "dense2", "tokens", dbText)
	parResp2 := mineJSON(t, h, "dense2", `{"closed":true,"minSupport":3,"workers":4}`)
	if parResp2.Cached {
		t.Fatal("fresh database served from cache")
	}
	if got, exp := mustJSON(t, parResp2.Patterns), mustJSON(t, seqResp.Patterns); !bytes.Equal(got, exp) {
		t.Error("parallel mine (fresh db) differs from sequential mine")
	}
}

// TestMineTopKWorkers: the top-k route honors workers — identical results
// to the sequential top-k run at every worker count, the worker count is
// reported in the summary, and (like GSgrow/CloGSgrow requests) the worker
// count is canonicalized out of the cache key so any worker count serves
// any other.
func TestMineTopKWorkers(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "dense", "tokens", denseTokens(6, 30))

	seqResp := mineJSON(t, h, "dense", `{"closed":true,"topK":25}`)
	if seqResp.Workers != 1 {
		t.Errorf("sequential top-k summary reports workers=%d, want 1", seqResp.Workers)
	}
	parResp := mineJSON(t, h, "dense", `{"closed":true,"topK":25,"workers":4}`)
	if !parResp.Cached {
		t.Error("workers must not fragment the top-k cache key")
	}
	if got, exp := mustJSON(t, parResp.Patterns), mustJSON(t, seqResp.Patterns); !bytes.Equal(got, exp) {
		t.Error("cached top-k replay differs from sequential result")
	}

	// Fresh database: the parallel path actually runs and must match.
	upload(t, h, "dense2", "tokens", denseTokens(6, 30))
	parResp2 := mineJSON(t, h, "dense2", `{"closed":true,"topK":25,"workers":4}`)
	if parResp2.Cached {
		t.Fatal("fresh database served from cache")
	}
	if parResp2.Workers != 4 {
		t.Errorf("parallel top-k summary reports workers=%d, want 4", parResp2.Workers)
	}
	if got, exp := mustJSON(t, parResp2.Patterns), mustJSON(t, seqResp.Patterns); !bytes.Equal(got, exp) {
		t.Error("parallel top-k differs from sequential top-k")
	}

	// Absurd worker counts are a request error, not an allocation storm.
	rec := doJSON(t, h, "POST", "/v1/databases/dense/mine", `{"topK":2,"workers":1000000000}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("workers=1e9: status %d, want 400", rec.Code)
	}
}

func decodeNDJSON(t *testing.T, body string) (patterns []repro.Pattern, summary *mineSummary) {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if summary != nil {
			t.Fatal("summary line is not last")
		}
		var line ndjsonLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Pattern != nil:
			patterns = append(patterns, *line.Pattern)
		case line.Summary != nil:
			summary = line.Summary
		default:
			t.Fatalf("NDJSON line with neither pattern nor summary: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return patterns, summary
}

func TestMineStreamingNDJSON(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	rec := doJSON(t, h, "POST", "/v1/databases/ex11/mine", `{"closed":true,"minSupport":2,"stream":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream mine: %d %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	patterns, summary := decodeNDJSON(t, rec.Body.String())
	if summary == nil {
		t.Fatal("no summary line")
	}
	want := expectedPatterns(t, example11, repro.Chars, repro.Options{MinSupport: 2}, true)
	if got, exp := mustJSON(t, patterns), mustJSON(t, want); !bytes.Equal(got, exp) {
		t.Errorf("streamed patterns differ from direct MineClosed:\n got %s\nwant %s", got, exp)
	}
	if summary.NumPatterns != len(want) || summary.Truncated {
		t.Errorf("summary: %+v", summary)
	}

	// The Accept header selects streaming too, including with media-type
	// parameters and alternatives.
	req := httptest.NewRequest("POST", "/v1/databases/ex11/mine", strings.NewReader(`{"topK":2}`))
	req.Header.Set("Accept", "application/x-ndjson; charset=utf-8, application/json")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if ct := rec2.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Accept-driven stream Content-Type = %q", ct)
	}
	pk, sk := decodeNDJSON(t, rec2.Body.String())
	if len(pk) != 2 || sk == nil || sk.Algorithm != "TopK" {
		t.Errorf("top-k stream: %d patterns, summary %+v", len(pk), sk)
	}
}

func TestMineResultCache(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	first := mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2}`)
	if first.Cached {
		t.Fatal("first mine reported cached")
	}
	second := mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2}`)
	if !second.Cached {
		t.Fatal("second identical mine not served from cache")
	}
	if got, exp := mustJSON(t, second.Patterns), mustJSON(t, first.Patterns); !bytes.Equal(got, exp) {
		t.Error("cached patterns differ from original")
	}

	// A cached result replays in streaming form too.
	rec := doJSON(t, h, "POST", "/v1/databases/ex11/mine", `{"closed":true,"minSupport":2,"stream":true}`)
	patterns, summary := decodeNDJSON(t, rec.Body.String())
	if summary == nil || !summary.Cached {
		t.Fatalf("streamed replay not cached: %+v", summary)
	}
	if got, exp := mustJSON(t, patterns), mustJSON(t, first.Patterns); !bytes.Equal(got, exp) {
		t.Error("streamed replay differs from original")
	}

	// Different options miss; truncated runs are never cached.
	third := mineJSON(t, h, "ex11", `{"closed":false,"minSupport":2}`)
	if third.Cached {
		t.Error("different options served from cache")
	}
	trunc := mineJSON(t, h, "ex11", `{"minSupport":2,"maxPatterns":1}`)
	if !trunc.Truncated {
		t.Fatalf("maxPatterns run not truncated: %+v", trunc.mineSummary)
	}
	truncAgain := mineJSON(t, h, "ex11", `{"minSupport":2,"maxPatterns":1}`)
	if truncAgain.Cached {
		t.Error("truncated run was cached")
	}

	// Re-upload bumps the generation and invalidates the cache key.
	upload(t, h, "ex11", "chars", example11)
	fresh := mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2}`)
	if fresh.Cached {
		t.Error("mine after re-upload served from stale cache")
	}
	if fresh.Generation != 2 {
		t.Errorf("generation = %d, want 2", fresh.Generation)
	}
}

// TestDeleteThenReuploadDoesNotServeStaleCache: a database name that is
// deleted and re-uploaded with different contents must never be served
// results cached for the old contents — the server-global generation
// counter guarantees the old cache keys can't be reached, and delete also
// purges them eagerly.
func TestDeleteThenReuploadDoesNotServeStaleCache(t *testing.T) {
	h := newHandler(t)
	first := upload(t, h, "x", "chars", example11)
	cachedRun := mineJSON(t, h, "x", `{"closed":true,"minSupport":2}`)
	if rec := doJSON(t, h, "DELETE", "/v1/databases/x", ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d", rec.Code)
	}
	info := upload(t, h, "x", "chars", "S1: XYXYXYXY\nS2: XY\n")
	if info.Generation <= first.Generation {
		t.Fatalf("generation after delete+re-upload = %d, not past %d", info.Generation, first.Generation)
	}
	resp := mineJSON(t, h, "x", `{"closed":true,"minSupport":2}`)
	if resp.Cached {
		t.Fatal("mine after delete+re-upload served from stale cache")
	}
	if got, old := mustJSON(t, resp.Patterns), mustJSON(t, cachedRun.Patterns); bytes.Equal(got, old) {
		t.Fatal("patterns from the deleted database's contents")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	o := &mineOutcome{}
	c.put("a", o)
	c.put("b", o)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", o) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	var disabled *resultCache
	if _, ok := disabled.get("a"); ok {
		t.Error("nil cache returned a hit")
	}
	disabled.put("a", o) // must not panic
}

// TestConcurrentMines exercises the acceptance criterion: concurrent mine
// requests over distinct databases, under -race, each byte-identical to
// the direct library result.
func TestConcurrentMines(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{CacheSize: -1}).Handler()) // no cache: every request mines
	defer ts.Close()
	client := ts.Client()

	dbA := denseTokens(5, 25)
	dbB := example11
	httpUpload := func(name, format, body string) {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/databases/"+name+"?format="+format, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("upload %s: %d", name, resp.StatusCode)
		}
	}
	httpUpload("densa", "tokens", dbA)
	httpUpload("ex11", "chars", dbB)

	wantA := mustJSON(t, expectedPatterns(t, dbA, repro.Tokens, repro.Options{MinSupport: 3}, true))
	wantB := mustJSON(t, expectedPatterns(t, dbB, repro.Chars, repro.Options{MinSupport: 2}, true))

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	mine := func(name, body string, want []byte) {
		defer wg.Done()
		resp, err := client.Post(ts.URL+"/v1/databases/"+name+"/mine", "application/json", strings.NewReader(body))
		if err != nil {
			errs <- err
			return
		}
		defer resp.Body.Close()
		var mr mineResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			errs <- fmt.Errorf("mine %s: decode: %v", name, err)
			return
		}
		if got := mustJSON(t, mr.Patterns); !bytes.Equal(got, want) {
			errs <- fmt.Errorf("mine %s: patterns differ from direct library call", name)
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(2)
		// Alternate worker counts so sequential and parallel runs overlap.
		go mine("densa", fmt.Sprintf(`{"closed":true,"minSupport":3,"workers":%d}`, i%2*4), wantA)
		go mine("ex11", `{"closed":true,"minSupport":2}`, wantB)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMineClientCancellation proves an in-flight buffered mine aborts
// promptly when the client goes away: the only abort path for a buffered
// request is the request context reaching the DFS.
func TestMineClientCancellation(t *testing.T) {
	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	client := ts.Client()

	// Full mine of this database takes ~1s+ (hundreds of thousands of
	// patterns); the client cancels after 50ms.
	resp, err := client.Post(ts.URL+"/v1/databases/big?format=tokens", "text/plain",
		strings.NewReader(denseTokens(4, 30)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/databases/big/mine",
		strings.NewReader(`{"minSupport":2}`))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if resp, err := client.Do(req); err == nil {
		resp.Body.Close()
		t.Fatal("mine succeeded despite cancellation")
	}
	// ts.Close blocks until the handler goroutine returns, so the total
	// elapsed time bounds how long the aborted mine kept running. An
	// un-cancelled run takes well over a second.
	ts.Close()
	if elapsed := time.Since(start); elapsed > 700*time.Millisecond {
		t.Errorf("handler kept mining for %v after client cancellation", elapsed)
	}
}

func TestSupportEndpoint(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	rec := doJSON(t, h, "POST", "/v1/databases/ex11/support",
		`{"pattern":["A","B"],"instances":true,"perSequence":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("support: %d %s", rec.Code, rec.Body)
	}
	var resp supportResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Support != 4 {
		t.Errorf("sup(AB) = %d, want 4", resp.Support)
	}
	if len(resp.Instances) != 4 || resp.Instances[0].Sequence != "S1" {
		t.Errorf("instances: %+v", resp.Instances)
	}
	if len(resp.PerSequence) != 2 || resp.PerSequence[0] != 3 || resp.PerSequence[1] != 1 {
		t.Errorf("perSequence: %v", resp.PerSequence)
	}

	// Unknown events are support 0, not an error.
	rec = doJSON(t, h, "POST", "/v1/databases/ex11/support", `{"pattern":["Z"]}`)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"support":0`) {
		t.Errorf("unknown event: %d %s", rec.Code, rec.Body)
	}
}

func TestHealthz(t *testing.T) {
	h := newHandler(t)
	rec := doJSON(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body)
	}
}
