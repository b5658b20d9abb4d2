package server

import (
	"encoding/json"
	"testing"
)

// TestCacheKeyCanonicalization: every option that changes what a mining
// run returns must land in the cache key; worker count, streaming shape
// and spellings that provably return the same result must not.
func TestCacheKeyCanonicalization(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		var q mineRequest
		if err := json.Unmarshal([]byte(body), &q); err != nil {
			t.Fatal(err)
		}
		opt, err := q.options()
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return cacheKey("db", 3, 1, opt)
	}

	distinct := []string{
		`{"closed":true,"minSupport":10}`,
		`{"closed":false,"minSupport":10}`,
		`{"closed":true,"minSupport":11}`,
		`{"closed":true,"minSupport":10,"maxPatternLength":4}`,
		`{"closed":true,"minSupport":10,"maxPatterns":100}`,
		`{"closed":true,"minSupport":10,"instances":true}`,
		`{"topK":5}`,
		`{"topK":5,"closed":true}`,
		`{"minSupport":10,"semantics":"nonoverlap"}`,
		`{"minSupport":10,"semantics":"compressed"}`,
		`{"minSupport":10,"semantics":"compressed","compressDelta":0.3}`,
		`{"minSupport":10,"semantics":"gapped","maxGap":1}`,
		`{"minSupport":10,"semantics":"gapped","minGap":1,"maxGap":1}`,
	}
	seen := map[string]int{}
	for i, body := range distinct {
		k := key(body)
		if j, dup := seen[k]; dup {
			t.Errorf("requests %s and %s collide on key %q", distinct[j], body, k)
		}
		seen[k] = i
	}

	// Pairs that return identical results and so must share one entry.
	same := []struct{ a, b, why string }{
		{`{"closed":true,"minSupport":10}`, `{"closed":true,"minSupport":10,"workers":8,"stream":true}`,
			"workers and stream do not change the result"},
		{`{"topK":5}`, `{"topK":5,"workers":8}`,
			"workers do not change the top-k result"},
		{`{"minSupport":10}`, `{"minSupport":10,"semantics":"repetitive"}`,
			"the empty semantics is repetitive"},
		{`{"minSupport":10,"semantics":"compressed"}`, `{"minSupport":10,"semantics":"compressed","compressDelta":0.1}`,
			"a zero delta is the default delta"},
		{`{"topK":5}`, `{"topK":5,"minSupport":3}`,
			"top-k ignores minSupport"},
		{`{"topK":5,"closed":true}`, `{"topK":5,"closed":true,"minSupport":7}`,
			"top-k ignores minSupport"},
		{`{"minSupport":10,"semantics":"compressed"}`, `{"minSupport":10,"semantics":"compressed","closed":true}`,
			"compressed always searches the closed set"},
	}
	for _, p := range same {
		if key(p.a) != key(p.b) {
			t.Errorf("%s and %s have different keys, but %s:\n%q\n%q", p.a, p.b, p.why, key(p.a), key(p.b))
		}
	}

	base := `{"closed":true,"minSupport":10}`
	var q mineRequest
	_ = json.Unmarshal([]byte(base), &q)
	opt, _ := q.options()
	if key(base) == cacheKey("db", 4, 1, opt) {
		t.Error("upload generation must change the cache key")
	}
	if key(base) == cacheKey("db", 3, 2, opt) {
		t.Error("snapshot generation must change the cache key")
	}
	if key(base) == cacheKey("other", 3, 1, opt) {
		t.Error("database name must change the cache key")
	}
	// The two generations must not be collapsible into each other: upload
	// 1/snapshot 2 and upload 2/snapshot 1 are different data.
	if cacheKey("db", 1, 2, opt) == cacheKey("db", 2, 1, opt) {
		t.Error("upload and snapshot generations collide")
	}
}
