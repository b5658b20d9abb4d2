package main

import (
	"bytes"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	var l latencies
	for i := 1; i <= 99; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	if _, err := l.at(90); err == nil {
		t.Error("p90 of 99 samples accepted; it has fewer than ten samples beyond it")
	}
	l.add(100 * time.Millisecond)
	if v, err := l.at(90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 ms = %v, %v; want 90", v, err)
	}
	if v, err := l.at(50); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 ms = %v, %v; want 50", v, err)
	}
	if !strings.Contains(l.describe(), "p90=90.000 ms n=100") {
		t.Errorf("describe() = %q, want the p90 with its sample count", l.describe())
	}
	if _, err := (latencies{}).at(50); err == nil {
		t.Error("median of no samples accepted")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Layer: "server", Start: ms(0), End: ms(100)}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, ms(100)},
		{"one", []span{{Start: ms(10), End: ms(40)}}, ms(70)},
		{"overlapping", []span{{Start: ms(10), End: ms(40)}, {Start: ms(30), End: ms(60)}}, ms(50)},
		{"nested", []span{{Start: ms(10), End: ms(60)}, {Start: ms(20), End: ms(30)}}, ms(50)},
		{"clipped at both ends", []span{{Start: ms(-5), End: ms(5)}, {Start: ms(90), End: ms(120)}}, ms(85)},
		{"outside", []span{{Start: ms(200), End: ms(300)}}, ms(100)},
		{"covering", []span{{Start: ms(-10), End: ms(50)}, {Start: ms(40), End: ms(110)}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
	// A deeper replay laid under its parent subtracts its duration.
	child := span{Layer: "repro", Start: ms(500), End: ms(530)}
	if got := selfTime(parent, []span{replayedUnder(parent, child)}); got != ms(70) {
		t.Errorf("replayed child: selfTime = %v, want 70ms", got)
	}
	long := span{Layer: "repro", Start: ms(500), End: ms(650)}
	if got := selfTime(parent, []span{replayedUnder(parent, long)}); got != 0 {
		t.Errorf("replayed child longer than its parent: selfTime = %v, want 0", got)
	}
}

// serveMine mines q on an in-process server holding data.
func serveMine(t *testing.T, data []byte, q query) []byte {
	t.Helper()
	srv, err := server.New(server.Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if rec := serve(h, "POST", "/v1/databases/"+q.DB+"?format=tokens", data); rec.Code != http.StatusCreated {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.Bytes())
	}
	rec := serve(h, "POST", "/v1/databases/"+q.DB+"/mine", q.body())
	if rec.Code != http.StatusOK {
		t.Fatalf("mine: %d %s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

func TestDigestCheckRejectsWrongResponse(t *testing.T) {
	data := []byte("s1: a b c a b c\ns2: a b a c b\ns3: c a b c\n")
	db, err := loadLibrary(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []query{
		{Name: "closed", DB: "t", Closed: true, MinSupport: 2},
		{Name: "closed-ndjson", DB: "t", Closed: true, MinSupport: 2, Stream: true},
	} {
		res, err := runRepro(db.Snapshot(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := libraryAnswer(res)
		if want.Count < 2 {
			t.Fatalf("%s: fixture mines %d patterns, need at least 2", q.Name, want.Count)
		}
		body := serveMine(t, data, q)
		chk := newChecker(map[string]answer{q.Name: want})
		if _, err := chk.check(q, body); err != nil {
			t.Fatalf("%s: correct response rejected: %v", q.Name, err)
		}
		if _, err := chk.check(q, body); err != nil {
			t.Fatalf("%s: repeated correct response rejected: %v", q.Name, err)
		}
		// Every corruption must be caught, also after the checker has
		// accepted the correct bytes once.
		support := []byte(`"support":2`)
		if !bytes.Contains(body, support) {
			t.Fatalf("%s: response has no pattern of support 2: %s", q.Name, body)
		}
		for name, bad := range map[string][]byte{
			"support changed": bytes.Replace(body, support, []byte(`"support":7`), 1),
			"event renamed":   bytes.Replace(body, []byte(`"a"`), []byte(`"z"`), 1),
			"count changed":   bytes.Replace(body, []byte(`"numPatterns":`), []byte(`"numPatterns":1`), 1),
		} {
			if bytes.Equal(bad, body) {
				t.Fatalf("%s/%s: corruption did not apply", q.Name, name)
			}
			if _, err := chk.check(q, bad); err == nil {
				t.Errorf("%s: response with %s accepted", q.Name, name)
			}
		}
		other := newChecker(map[string]answer{q.Name: {Count: want.Count, Digest: "000000000000000000000000"}})
		if _, err := other.check(q, body); err == nil {
			t.Errorf("%s: response accepted against a wrong digest", q.Name)
		}
	}
}

func TestScriptIdenticalForSeed(t *testing.T) {
	render := func(seed int64) (ops []string, bodies [][]byte, uploads map[string][]byte) {
		in, err := newInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range workloadNames {
			w := workloads[name]
			for c := 0; c < w.clients; c++ {
				for n := 0; n < 20; n++ {
					for _, o := range w.cycle(c, n) {
						ops = append(ops, name+" "+o.String())
						if o.Kind == opAppend {
							bodies = append(bodies, ndjson(in.batch(o.DB, o.Client, o.Batch)))
						}
						if o.Kind == opMine {
							bodies = append(bodies, o.Query.body())
						}
					}
				}
			}
		}
		return ops, bodies, in.uploads()
	}
	ops1, bodies1, up1 := render(7)
	ops2, bodies2, up2 := render(7)
	if !reflect.DeepEqual(ops1, ops2) || !reflect.DeepEqual(bodies1, bodies2) || !reflect.DeepEqual(up1, up2) {
		t.Fatal("two scripts for seed 7 differ")
	}
	ops3, bodies3, up3 := render(8)
	if !reflect.DeepEqual(ops1, ops3) {
		t.Error("the op sequence depends on the seed; only the inputs should")
	}
	if reflect.DeepEqual(bodies1, bodies3) || bytes.Equal(up1["quest"], up3["quest"]) {
		t.Error("seeds 7 and 8 give the same inputs")
	}
	// The two clients' label sets on the shared database are disjoint, so
	// its final state does not depend on how their appends interleave.
	in, _ := newInputs(7)
	seen := map[string]int{}
	for c := 0; c < 2; c++ {
		for b := 0; b < ingestAppends; b++ {
			for _, r := range in.batch("quest", c, b) {
				if prev, ok := seen[r.Label]; ok && prev != c {
					t.Fatalf("label %s used by both clients", r.Label)
				}
				seen[r.Label] = c
			}
		}
	}
}

func TestSeedsGiveIsomorphicDatabases(t *testing.T) {
	q := query{Name: "closed-20", Closed: true, MinSupport: 20}
	var counts []int
	for _, seed := range []int64{1, 2} {
		in, err := newInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		db, err := loadLibrary(tokens(in.quest))
		if err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.NumSequences != 1000 || st.TotalLength != 20069 {
			t.Fatalf("seed %d: Quest database has %d sequences, %d events; want 1000, 20069", seed, st.NumSequences, st.TotalLength)
		}
		res, err := db.Snapshot().MineClosed(repro.Options{MinSupport: q.MinSupport})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.NumPatterns)
	}
	if counts[0] != counts[1] {
		t.Errorf("closed minsup=20 mines %d patterns on seed 1 and %d on seed 2; relabeling must not change the work", counts[0], counts[1])
	}
}

func TestBarrierDecidesForAllClients(t *testing.T) {
	for _, c := range []struct {
		deadline time.Time
		want     bool
	}{{time.Now().Add(time.Hour), true}, {time.Now().Add(-time.Second), false}} {
		b := newBarrier(3, c.deadline)
		got := make(chan bool, 3*5)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 5; r++ {
					got <- b.wait()
				}
			}()
		}
		wg.Wait()
		close(got)
		for g := range got {
			if g != c.want {
				t.Errorf("deadline %v: a client was told %v", c.deadline, g)
			}
		}
	}
}

// TestReplayCycleRunsEveryOpOnce checks the traced run's cycle replay: on
// ingest-mine the upload before client 0's barrier runs before any other
// op, every other op runs exactly once, and each client's ops keep their
// order.
func TestReplayCycleRunsEveryOpOnce(t *testing.T) {
	w := workloads["ingest-mine"]
	var mu sync.Mutex
	var seen []op
	replayCycle(w, 0, func(c int, o op) {
		if o.Client != c {
			t.Errorf("op %s replayed as client %d", o, c)
		}
		mu.Lock()
		seen = append(seen, o)
		mu.Unlock()
	})
	if len(seen) == 0 || seen[0].Kind != opUpload {
		t.Fatalf("first op replayed: %v, want the upload", seen[:min(1, len(seen))])
	}
	var want []op
	for c := 0; c < w.clients; c++ {
		var got []op
		for _, o := range seen {
			if o.Client == c {
				got = append(got, o)
			}
		}
		var script []op
		for _, o := range w.cycle(c, 0) {
			if o.Kind != opBarrier {
				script = append(script, o)
			}
		}
		if !reflect.DeepEqual(got, script) {
			t.Errorf("client %d replayed %d ops, not its script's %d in order", c, len(got), len(script))
		}
		want = append(want, script...)
	}
	if len(seen) != len(want) {
		t.Errorf("replayed %d ops, scripts have %d", len(seen), len(want))
	}
}

// TestTracedCycles checks that every workload's traced run replays at
// least one cycle, and ingest-mine enough episodes for three checkpoints.
func TestTracedCycles(t *testing.T) {
	for _, name := range workloadNames {
		if n := workloads[name].tracedCycles(1); n < 1 {
			t.Errorf("%s: %d traced cycles for 1 s", name, n)
		}
	}
	if n := workloads["ingest-mine"].tracedCycles(25); n < 3 {
		t.Errorf("ingest-mine: %d traced episodes for 25 s; each completes about one checkpoint and at least 3 are needed", n)
	}
}
