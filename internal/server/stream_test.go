package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
)

// deadlineRecorder is a ResponseWriter that supports write deadlines (as
// http.ResponseController sees them) and records every deadline set.
type deadlineRecorder struct {
	*httptest.ResponseRecorder
	deadlines []time.Time
}

func (d *deadlineRecorder) SetWriteDeadline(t time.Time) error {
	d.deadlines = append(d.deadlines, t)
	return nil
}

// streamWithDeadlines sends one NDJSON mine request for ex11 and returns
// the recorder, the number of pattern lines and the summary line.
func streamWithDeadlines(t *testing.T, h http.Handler, body string) (*deadlineRecorder, int, *mineSummary) {
	t.Helper()
	rec := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/databases/ex11/mine", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	patterns, summary := decodeNDJSON(t, rec.Body.String())
	if summary == nil {
		t.Fatalf("%s: no summary line", body)
	}
	for _, d := range rec.deadlines {
		if !d.After(time.Now()) {
			t.Errorf("%s: write deadline %v is not in the future", body, d)
		}
	}
	return rec, len(patterns), summary
}

// TestStreamWriteDeadlines: every NDJSON response — live, live top-k and
// replayed from the cache — writes under a deadline, so a client that
// stops reading cannot pin the handler. Live streams arm it before each
// line; a cache replay arms it once for the whole response.
func TestStreamWriteDeadlines(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)

	rec, n, sum := streamWithDeadlines(t, h, `{"minSupport":2,"stream":true}`)
	if sum.Cached || len(rec.deadlines) < n+1 {
		t.Errorf("live stream: cached=%t, %d deadlines for %d lines", sum.Cached, len(rec.deadlines), n+1)
	}
	rec, n, sum = streamWithDeadlines(t, h, `{"topK":3,"closed":true,"stream":true}`)
	if sum.Cached || n != 3 || len(rec.deadlines) < n+1 {
		t.Errorf("live top-k stream: cached=%t, %d deadlines for %d lines", sum.Cached, len(rec.deadlines), n+1)
	}

	// Prime the cache through the buffered representation, then replay it
	// as NDJSON.
	mineJSON(t, h, "ex11", `{"closed":true,"minSupport":2}`)
	rec, n, sum = streamWithDeadlines(t, h, `{"closed":true,"minSupport":2,"stream":true}`)
	if !sum.Cached || n == 0 {
		t.Fatalf("replay: cached=%t with %d patterns", sum.Cached, n)
	}
	if len(rec.deadlines) != 1 {
		t.Errorf("cache-hit stream set %d write deadlines, want 1", len(rec.deadlines))
	}
}

// TestBufferedWriteDeadlines: buffered (non-NDJSON) mine responses, fresh
// and served from the cache, are written under one write deadline each,
// like a cache-hit stream.
func TestBufferedWriteDeadlines(t *testing.T) {
	h := newHandler(t)
	upload(t, h, "ex11", "chars", example11)
	for _, wantCached := range []bool{false, true} {
		rec := &deadlineRecorder{ResponseRecorder: httptest.NewRecorder()}
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/databases/ex11/mine", strings.NewReader(`{"closed":true,"minSupport":2}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp mineResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Cached != wantCached || len(resp.Patterns) == 0 {
			t.Fatalf("cached=%t with %d patterns, want cached=%t", resp.Cached, len(resp.Patterns), wantCached)
		}
		if len(rec.deadlines) != 1 || !rec.deadlines[0].After(time.Now()) {
			t.Errorf("cached=%t: write deadlines %v, want one in the future", wantCached, rec.deadlines)
		}
	}
}

// TestParallelBudgetStream: a live NDJSON mine with workers > 1 under
// maxPatterns writes exactly the patterns its summary counts — the ones
// a buffered mine of the same query returns, in order — not every
// pattern a worker found before the merge trimmed the budget.
func TestParallelBudgetStream(t *testing.T) {
	quest, err := datagen.Quest(datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	for i, s := range quest.Seqs {
		fmt.Fprintf(&body, "S%d:", i)
		for _, e := range s {
			body.WriteString(" " + quest.Dict.Name(e))
		}
		body.WriteByte('\n')
	}
	h := newHandler(t)
	upload(t, h, "quest", "tokens", body.String())

	rec := doJSON(t, h, "POST", "/v1/databases/quest/mine", `{"minSupport":10,"maxPatterns":3,"stream":true,"workers":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", rec.Code, rec.Body)
	}
	patterns, summary := decodeNDJSON(t, rec.Body.String())
	if summary == nil || summary.Cached {
		t.Fatalf("stream summary = %+v, want a live run", summary)
	}
	want := mineJSON(t, h, "quest", `{"minSupport":10,"maxPatterns":3}`)
	if summary.NumPatterns != 3 || len(patterns) != summary.NumPatterns || !reflect.DeepEqual(patterns, want.Patterns) {
		t.Fatalf("stream wrote %d pattern lines %v with numPatterns %d; buffered mine returned %v",
			len(patterns), patterns, summary.NumPatterns, want.Patterns)
	}
}
