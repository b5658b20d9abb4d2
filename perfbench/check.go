package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"repro"
)

// answer is the expected or observed outcome of one mine: the pattern
// count and a digest of the pattern list in response order.
type answer struct {
	Count  int
	Digest string
}

func (a answer) String() string { return fmt.Sprintf("%d patterns, digest %s", a.Count, a.Digest) }

// wirePattern is a pattern as the server encodes it.
type wirePattern struct {
	Events  []string `json:"events"`
	Support int      `json:"support"`
}

// summary holds the mine-response fields the benchmark checks.
type summary struct {
	NumPatterns        int    `json:"numPatterns"`
	SnapshotGeneration uint64 `json:"snapshotGeneration"`
	Truncated          bool   `json:"truncated"`
	Cached             bool   `json:"cached"`
}

func digestPatterns(n int, each func(i int) ([]string, int)) answer {
	h := sha256.New()
	for i := 0; i < n; i++ {
		events, sup := each(i)
		h.Write([]byte(strings.Join(events, "\x1f")))
		h.Write([]byte("\x1e" + strconv.Itoa(sup) + "\n"))
	}
	return answer{Count: n, Digest: hex.EncodeToString(h.Sum(nil)[:12])}
}

// libraryAnswer digests a result of the repro library.
func libraryAnswer(res *repro.Result) answer {
	return digestPatterns(len(res.Patterns), func(i int) ([]string, int) {
		return res.Patterns[i].Events, res.Patterns[i].Support
	})
}

// response is a parsed mine response.
type response struct {
	sum summary
	// patterns is the raw pattern section: everything after the summary in
	// a JSON response, every line but the summary in an NDJSON one. Its
	// checksum lets repeated responses skip a full decode.
	patterns []byte
}

// parseResponse splits a mine response body into its summary and its
// pattern section without decoding the patterns.
func parseResponse(body []byte, stream bool) (response, error) {
	if stream {
		body = bytes.TrimRight(body, "\n")
		i := bytes.LastIndexByte(body, '\n')
		var line struct {
			Summary *summary `json:"summary"`
		}
		if err := json.Unmarshal(body[i+1:], &line); err != nil || line.Summary == nil {
			return response{}, fmt.Errorf("NDJSON response lacks a summary line")
		}
		if i < 0 {
			i = 0
		}
		return response{sum: *line.Summary, patterns: body[:i]}, nil
	}
	// The summary fields precede "patterns" in the JSON object; a full
	// decode is the fallback for any other layout.
	i := bytes.Index(body, []byte(`"patterns":`))
	if i > 0 && body[i-1] == ',' {
		head := append(append([]byte(nil), body[:i-1]...), '}')
		var s summary
		if json.Unmarshal(head, &s) == nil {
			return response{sum: s, patterns: body[i:]}, nil
		}
	}
	var s summary
	if err := json.Unmarshal(body, &s); err != nil {
		return response{}, fmt.Errorf("decode mine response: %v", err)
	}
	return response{sum: s, patterns: body}, nil
}

// decodeAnswer fully decodes a response's patterns and digests them.
func decodeAnswer(body []byte, stream bool) (answer, error) {
	var pats []wirePattern
	if stream {
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var line struct {
				Pattern *wirePattern `json:"pattern"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return answer{}, fmt.Errorf("decode NDJSON line: %v", err)
			}
			if line.Pattern != nil {
				pats = append(pats, *line.Pattern)
			}
		}
		if err := sc.Err(); err != nil {
			return answer{}, err
		}
	} else {
		var r struct {
			Patterns []wirePattern `json:"patterns"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return answer{}, fmt.Errorf("decode mine response: %v", err)
		}
		pats = r.Patterns
	}
	return digestPatterns(len(pats), func(i int) ([]string, int) { return pats[i].Events, pats[i].Support }), nil
}

// checker verifies mine responses against expected answers. After a
// response of a query has been decoded and matched once, later responses
// whose pattern section is byte-identical are accepted on its checksum,
// which keeps the load generator's own CPU use small.
type checker struct {
	expected map[string]answer // by query name
	seen     map[string]uint32 // checksum of a verified pattern section, by query name
}

func newChecker(expected map[string]answer) *checker {
	return &checker{expected: expected, seen: map[string]uint32{}}
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// check verifies one response of query q. It is not safe for concurrent
// use; each client owns a checker.
func (c *checker) check(q query, body []byte) (summary, error) {
	r, err := parseResponse(body, q.Stream)
	if err != nil {
		return summary{}, err
	}
	if r.sum.Truncated {
		return r.sum, fmt.Errorf("%s: truncated response", q.Name)
	}
	want, ok := c.expected[q.Name]
	if !ok {
		return r.sum, fmt.Errorf("%s: no expected answer", q.Name)
	}
	if r.sum.NumPatterns != want.Count {
		return r.sum, fmt.Errorf("%s: numPatterns %d, want %d", q.Name, r.sum.NumPatterns, want.Count)
	}
	sum := crc32.Checksum(r.patterns, castagnoli)
	if prev, ok := c.seen[q.Name]; ok && prev == sum {
		return r.sum, nil
	}
	got, err := decodeAnswer(body, q.Stream)
	if err != nil {
		return r.sum, fmt.Errorf("%s: %v", q.Name, err)
	}
	if got != want {
		return r.sum, fmt.Errorf("%s: got %v, want %v", q.Name, got, want)
	}
	c.seen[q.Name] = sum
	return r.sum, nil
}
