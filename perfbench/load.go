package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// barrier lets every client of an episodic workload start each cycle
// together. The last client to arrive decides, for all of them, whether
// the run goes on.
type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	n        int
	waiting  int
	round    int
	goOn     bool
	deadline time.Time
}

func newBarrier(n int, deadline time.Time) *barrier {
	b := &barrier{n: n, deadline: deadline}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until every client has arrived and reports whether the run
// goes on.
func (b *barrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.goOn = time.Now().Before(b.deadline)
		b.cond.Broadcast()
		return b.goOn
	}
	for round == b.round {
		b.cond.Wait()
	}
	return b.goOn
}

// ingestMine records one mine issued between appends on ingest-mine; it is
// verified after the run, once the database state it saw is known.
type ingestMine struct {
	episode    int
	ownBatches int    // the mining client's acknowledged batches when it sent the mine
	generation uint64 // snapshot generation the server mined
	got        answer
}

// clientResult is what one load-generating client observed.
type clientResult struct {
	mineLat, appendLat latencies
	mines, appends     int
	uploads            int
	appendRecords      int
	attempted, failed  int
	acked              map[string]int // acknowledged batches per database since its last upload
	cycles             int            // cycles started
	cycleSeconds       []float64      // wall time from each cycle's start to the next's
	ingestMines        []ingestMine
	err                error // first correctness failure
}

// loadClient is one closed-loop client: it sends its next request only
// after the previous response has been read to the last byte.
type loadClient struct {
	id     int
	base   string
	http   *http.Client
	w      workload
	in     *inputs
	up     map[string][]byte
	bar    *barrier
	chk    *checker
	buf    bytes.Buffer
	result clientResult
	// done counts completed ops across all clients; afterCycle, when set,
	// runs after each of this client's cycles.
	done       *atomic.Int64
	afterCycle func()
	// bodies caches encoded append batches: episodes repeat them.
	bodies map[string][]byte
}

func newLoadClient(id int, base string, w workload, in *inputs, up map[string][]byte, bar *barrier, done *atomic.Int64, expected map[string]answer) *loadClient {
	return &loadClient{
		id: id, base: base, w: w, in: in, up: up, bar: bar, done: done, chk: newChecker(expected),
		// One keep-alive connection per client.
		http:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		result: clientResult{acked: map[string]int{}},
		bodies: map[string][]byte{},
	}
}

// run executes whole cycles of the client's script until deadline; on
// episodic workloads the barrier takes that decision for every client.
func (c *loadClient) run(deadline time.Time) {
	defer c.http.CloseIdleConnections()
	var last time.Time
	for n := 0; ; n++ {
		if n > 0 && c.afterCycle != nil {
			c.afterCycle()
		}
		goOn := time.Now().Before(deadline)
		if c.w.episodic {
			goOn = c.bar.wait()
		}
		now := time.Now()
		if n > 0 {
			c.result.cycleSeconds = append(c.result.cycleSeconds, now.Sub(last).Seconds())
		}
		last = now
		if !goOn {
			return
		}
		if c.w.episodic {
			c.result.acked = map[string]int{}
		}
		c.result.cycles = n + 1
		for _, o := range c.w.cycle(c.id, n) {
			c.do(o)
		}
	}
}

func (c *loadClient) fail(err error) {
	if c.result.err == nil {
		c.result.err = fmt.Errorf("client %d: %v", c.id, err)
	}
}

// post sends one request and reads the whole response into c.buf.
func (c *loadClient) post(path string, body []byte) (int, time.Duration, error) {
	start := time.Now()
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

func (c *loadClient) do(o op) {
	r := &c.result
	if o.Kind == opBarrier {
		c.bar.wait()
		return
	}
	r.attempted++
	defer c.done.Add(1)
	switch o.Kind {
	case opUpload:
		code, _, err := c.post("/v1/databases/"+o.DB+"?format=tokens", c.up[o.DB])
		if err != nil || code != http.StatusCreated {
			r.failed++
			c.fail(fmt.Errorf("%s: status %d, %v: %.200s", o, code, err, c.buf.Bytes()))
			return
		}
		r.uploads++
		r.acked[o.DB] = 0
	case opMine:
		code, lat, err := c.post("/v1/databases/"+o.Query.DB+"/mine", o.Query.body())
		if err != nil || code != http.StatusOK {
			r.failed++
			c.fail(fmt.Errorf("%s: status %d, %v: %.200s", o, code, err, c.buf.Bytes()))
			return
		}
		r.mines++
		r.mineLat.add(lat)
		if c.w.name == "ingest-mine" {
			// The expected answer depends on which appends the mine saw.
			got, err := decodeAnswer(c.buf.Bytes(), o.Query.Stream)
			s, perr := parseResponse(c.buf.Bytes(), o.Query.Stream)
			if err != nil || perr != nil {
				c.fail(fmt.Errorf("%s: %v %v", o, err, perr))
				return
			}
			r.ingestMines = append(r.ingestMines, ingestMine{episode: r.cycles, ownBatches: r.acked["quest"], generation: s.sum.SnapshotGeneration, got: got})
			return
		}
		if _, err := c.chk.check(o.Query, c.buf.Bytes()); err != nil {
			c.fail(err)
		}
	case opAppend:
		recs := c.in.batch(o.DB, o.Client, o.Batch)
		if o.Batch != r.acked[o.DB] {
			c.fail(fmt.Errorf("%s: batch out of order (acked %d)", o, r.acked[o.DB]))
		}
		key := fmt.Sprintf("%s/%d", o.DB, o.Batch)
		body, ok := c.bodies[key]
		if !ok {
			body = ndjson(recs)
			c.bodies[key] = body
		}
		code, lat, err := c.post("/v1/databases/"+o.DB+"/append", body)
		if err != nil || code != http.StatusOK {
			r.failed++
			c.fail(fmt.Errorf("%s: status %d, %v: %.200s", o, code, err, c.buf.Bytes()))
			return
		}
		r.appends++
		r.appendRecords += len(recs)
		r.acked[o.DB]++
		r.appendLat.add(lat)
	}
}

// cycleRate is a client's completion rate of count items: items per cycle
// over the median cycle time. The median keeps a few cycles slowed by
// anything else on the host from moving the rate.
func (r clientResult) cycleRate(count int) float64 {
	if len(r.cycleSeconds) == 0 {
		return 0
	}
	return float64(count) / float64(len(r.cycleSeconds)) / median(append([]float64(nil), r.cycleSeconds...))
}
