package server

// Tests for the semantics dimension of the mining endpoint: every mode is
// reachable over the wire, the cache distinguishes modes (and
// canonicalizes equivalent spellings), and every handler maps the repro
// error taxonomy to the right HTTP status.

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestMineSemanticsRoundTrip: each semantics value mines over HTTP and
// reports its algorithm and canonical semantics name in the summary.
func TestMineSemanticsRoundTrip(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	cases := []struct {
		req       string
		algorithm string
		semantics string
	}{
		{`{"minSupport":2}`, "GSgrow", "repetitive"},
		{`{"minSupport":2,"semantics":"repetitive"}`, "GSgrow", "repetitive"},
		{`{"minSupport":2,"semantics":"repetitive","closed":true}`, "CloGSgrow", "repetitive"},
		{`{"topK":3,"semantics":"repetitive"}`, "TopK", "repetitive"},
		{`{"minSupport":2,"semantics":"nonoverlap"}`, "GSgrow-NonOverlap", "nonoverlap"},
		{`{"minSupport":2,"semantics":"compressed"}`, "CRGSgrow", "compressed"},
		{`{"minSupport":2,"semantics":"compressed","compressDelta":0.3}`, "CRGSgrow", "compressed"},
		{`{"minSupport":2,"semantics":"gapped","maxGap":1}`, "GapGSgrow", "gapped"},
	}
	for _, c := range cases {
		resp := mineJSON(t, h, "ex11", c.req)
		if resp.Algorithm != c.algorithm || resp.Semantics != c.semantics {
			t.Errorf("%s: algorithm=%q semantics=%q, want %q/%q", c.req, resp.Algorithm, resp.Semantics, c.algorithm, c.semantics)
		}
		if resp.NumPatterns == 0 || len(resp.Patterns) != resp.NumPatterns {
			t.Errorf("%s: NumPatterns=%d with %d patterns", c.req, resp.NumPatterns, len(resp.Patterns))
		}
	}

	// Parallel runs return the same patterns per mode.
	for _, sem := range []string{"repetitive", "nonoverlap", "compressed"} {
		seqResp := mineJSON(t, h, "ex11", fmt.Sprintf(`{"minSupport":2,"semantics":%q}`, sem))
		parResp := mineJSON(t, h, "ex11", fmt.Sprintf(`{"minSupport":2,"semantics":%q,"workers":4}`, sem))
		if len(seqResp.Patterns) != len(parResp.Patterns) {
			t.Errorf("%s: workers=4 returned %d patterns, sequential %d", sem, len(parResp.Patterns), len(seqResp.Patterns))
			continue
		}
		for i := range seqResp.Patterns {
			a, b := seqResp.Patterns[i], parResp.Patterns[i]
			if a.Support != b.Support || fmt.Sprint(a.Events) != fmt.Sprint(b.Events) {
				t.Errorf("%s: pattern %d diverges across workers", sem, i)
				break
			}
		}
	}
}

// TestMineSemanticsStream: the NDJSON representation carries the
// semantics dimension too, including for modes whose patterns are only
// known at finalization (compressed).
func TestMineSemanticsStream(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)
	for _, sem := range []string{"nonoverlap", "compressed", "gapped"} {
		req := fmt.Sprintf(`{"minSupport":2,"semantics":%q,"stream":true}`, sem)
		if sem == "gapped" {
			req = `{"minSupport":2,"semantics":"gapped","maxGap":2,"stream":true}`
		}
		rec := doJSON(t, h, "POST", "/v1/databases/ex11/mine", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s stream: status %d: %s", sem, rec.Code, rec.Body)
		}
		patterns, summary := decodeNDJSON(t, rec.Body.String())
		if summary == nil {
			t.Fatalf("%s stream: no summary line", sem)
		}
		if summary.Semantics != sem {
			t.Errorf("%s stream: summary semantics %q", sem, summary.Semantics)
		}
		if summary.NumPatterns != len(patterns) || len(patterns) == 0 {
			t.Errorf("%s stream: %d patterns, summary says %d", sem, len(patterns), summary.NumPatterns)
		}
	}
}

// TestMineSemanticsCache: semantics is a cache dimension — equal
// requests hit, different modes miss — and equivalent spellings
// ("" ≡ "repetitive", delta 0 ≡ the default delta) share entries.
func TestMineSemanticsCache(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	first := map[string]string{
		"repetitive": `{"minSupport":2,"semantics":"repetitive"}`,
		"nonoverlap": `{"minSupport":2,"semantics":"nonoverlap"}`,
		"compressed": `{"minSupport":2,"semantics":"compressed"}`,
		"gapped":     `{"minSupport":2,"semantics":"gapped","maxGap":1}`,
	}
	// First run per mode is a miss even though other modes already ran.
	for sem, req := range first {
		if resp := mineJSON(t, h, "ex11", req); resp.Cached {
			t.Errorf("%s: first run served from cache", sem)
		}
	}
	for sem, req := range first {
		if resp := mineJSON(t, h, "ex11", req); !resp.Cached {
			t.Errorf("%s: identical rerun missed the cache", sem)
		}
	}
	// Canonicalization: omitted semantics is the repetitive entry; an
	// explicit default delta is the delta-0 entry; a different worker
	// count replays the same entry.
	equivalent := map[string]string{
		"default semantics": `{"minSupport":2}`,
		"explicit delta":    fmt.Sprintf(`{"minSupport":2,"semantics":"compressed","compressDelta":%g}`, 0.1),
		"worker count":      `{"minSupport":2,"semantics":"nonoverlap","workers":4}`,
	}
	for name, req := range equivalent {
		if resp := mineJSON(t, h, "ex11", req); !resp.Cached {
			t.Errorf("%s: expected a cache hit", name)
		}
	}
	// A different mode parameter is a different entry.
	distinct := map[string]string{
		"other delta": `{"minSupport":2,"semantics":"compressed","compressDelta":0.4}`,
		"other gaps":  `{"minSupport":2,"semantics":"gapped","maxGap":3}`,
	}
	for name, req := range distinct {
		if resp := mineJSON(t, h, "ex11", req); resp.Cached {
			t.Errorf("%s: unexpectedly served from cache", name)
		}
	}
}

// TestErrorStatusTaxonomy: one table drives every handler's error
// mapping; this test covers each handler × each reachable sentinel.
func TestErrorStatusTaxonomy(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"mine missing db", "POST", "/v1/databases/nope/mine", `{"minSupport":2}`, http.StatusNotFound},
		{"stats missing db", "GET", "/v1/databases/nope/stats", "", http.StatusNotFound},
		{"support missing db", "POST", "/v1/databases/nope/support", `{"pattern":["A"]}`, http.StatusNotFound},
		{"append missing db", "POST", "/v1/databases/nope/append", `{"events":["A"]}`, http.StatusNotFound},
		{"delete missing db", "DELETE", "/v1/databases/nope", "", http.StatusNotFound},
		{"upload unknown format", "POST", "/v1/databases/x?format=nope", "AB\n", http.StatusBadRequest},
		{"mine unknown semantics", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"bogus"}`, http.StatusBadRequest},
		{"mine invalid threshold", "POST", "/v1/databases/ex11/mine", `{"minSupport":0}`, http.StatusBadRequest},
		{"topk non-repetitive", "POST", "/v1/databases/ex11/mine", `{"topK":3,"semantics":"nonoverlap"}`, http.StatusBadRequest},
		{"closed nonoverlap", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"nonoverlap","closed":true}`, http.StatusBadRequest},
		{"closed gapped", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"gapped","closed":true}`, http.StatusBadRequest},
		{"gap bounds without gapped", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"maxGap":2}`, http.StatusBadRequest},
		{"delta without compressed", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"compressDelta":0.2}`, http.StatusBadRequest},
		{"delta out of range", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"compressed","compressDelta":1.5}`, http.StatusBadRequest},
		{"gapped with instances", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"gapped","instances":true}`, http.StatusBadRequest},
		{"gapped inverted gap range", "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"gapped","minGap":3,"maxGap":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := doJSON(t, h, c.method, c.path, c.body)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.want, rec.Body)
		}
	}
	// An unknown name fails inside the JSON decoder (repro.Semantics
	// parses itself) and still answers with ParseSemantics' error.
	rec := doJSON(t, h, "POST", "/v1/databases/ex11/mine", `{"minSupport":2,"semantics":"bogus"}`)
	if got, want := strings.TrimSpace(rec.Body.String()), `{"error":"repro: unknown semantics \"bogus\" (want repetitive, nonoverlap, compressed, or gapped)"}`; got != want {
		t.Errorf("unknown semantics body:\n got %s\nwant %s", got, want)
	}
}

// TestDecodeErrorsNameJSONTypes: a malformed /mine or /support body
// answers 400 with text built from the JSON field and the JSON type it
// needs, never the decoder's Go type and struct-field names.
func TestDecodeErrorsNameJSONTypes(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)
	cases := []struct{ path, body, want string }{
		{"mine", `{"closed":"yes"}`, `decode request: field \"closed\" must be a JSON boolean`},
		{"mine", `{"minSupport":"2"}`, `decode request: field \"minSupport\" must be a JSON number`},
		{"mine", `{"stream":1}`, `decode request: field \"stream\" must be a JSON boolean`},
		{"mine", `[1]`, `decode request: body must be a JSON object`},
		{"mine", `{"closed":tru}`, `decode request: malformed JSON at byte 14`},
		{"support", `{"pattern":"A"}`, `decode request: field \"pattern\" must be a JSON array`},
		{"support", `{"pattern":["A"],"perSequence":"no"}`, `decode request: field \"perSequence\" must be a JSON boolean`},
	}
	for _, c := range cases {
		rec := doJSON(t, h, "POST", "/v1/databases/ex11/"+c.path, c.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", c.path, c.body, rec.Code)
		}
		if got, want := strings.TrimSpace(rec.Body.String()), `{"error":"`+c.want+`"}`; got != want {
			t.Errorf("%s %s:\n got %s\nwant %s", c.path, c.body, got, want)
		}
	}
}
