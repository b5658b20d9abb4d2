package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/datagen"
	"repro/internal/seq"
)

// The mined databases are fixed datasets, relabeled per seed. Quest's own
// seed is pinned so that every --seed mines an isomorphic database: the
// seed permutes event names, sequence labels and upload order, so the
// server receives different bytes on every seed while the mining work (and
// every pattern count) stays identical. Drawing a fresh Quest database per
// seed instead moves the work of one query list by up to 4x between seeds
// (compressed minsup=10 ranges 180 ms to 1.4 s), which no run-to-run bound
// can absorb.
var (
	questParams = datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1} // D1C20N1S20, 1000 sequences, 20,069 events
	gapParams   = datagen.QuestParams{D: 1, C: 12, N: 1, S: 8, Seed: 3}
	poolParams  = datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 2}
)

const (
	gapSequences  = 200 // the gapped database keeps the first 200 sequences
	liveSequences = 64  // base size of the side databases appended to by mine-cold and mine-hot
	pieceLen      = 4   // events per appended record
	batchRecords  = 8   // records per append request: half upserts, half new labels
)

// record is one sequence of an upload or one line of an append batch.
type record struct {
	Label  string   `json:"label"`
	Events []string `json:"events"`
}

// inputs holds everything the benchmark sends to the server, derived from
// the seed.
type inputs struct {
	seed  int64
	quest []record // Quest D1C20N1S20 in upload order
	gap   []record // small database for the gapped query
	live  []record // base of the side databases receiving appends on mine-cold and mine-hot
	pool  []string // flattened event stream appended records draw from
	// owned[db][c] are the existing labels client c upserts into; the two
	// clients' label sets are disjoint, so the final database does not
	// depend on how their appends interleave.
	owned map[string][2][]string
}

func newInputs(seed int64) (*inputs, error) {
	r := rand.New(rand.NewSource(seed))
	rename := eventPermutation(r, questParams.N*1000)
	in := &inputs{seed: seed, owned: map[string][2][]string{}}

	q, err := datagen.Quest(questParams)
	if err != nil {
		return nil, err
	}
	in.quest = relabel(q, q.NumSequences(), "q", rename, r)
	g, err := datagen.Quest(gapParams)
	if err != nil {
		return nil, err
	}
	in.gap = relabel(g, gapSequences, "g", rename, r)
	p, err := datagen.Quest(poolParams)
	if err != nil {
		return nil, err
	}
	for _, s := range p.Seqs {
		for _, e := range s {
			in.pool = append(in.pool, rename(p.Dict.Name(e)))
		}
	}
	for i := 0; i < liveSequences; i++ {
		in.live = append(in.live, record{Label: fmt.Sprintf("l%03d", i), Events: in.piece(1_000_000 + i)})
	}
	var own [2][]string
	for _, rec := range in.quest {
		var idx int
		fmt.Sscanf(rec.Label[1:], "%d", &idx)
		own[idx%2] = append(own[idx%2], rec.Label)
	}
	in.owned["quest"] = own
	// Each client has a side database of its own.
	for c := 0; c < 2; c++ {
		for _, rec := range in.live {
			own := in.owned[liveDB(c)]
			own[c] = append(own[c], rec.Label)
			in.owned[liveDB(c)] = own
		}
	}
	return in, nil
}

// eventPermutation returns a bijection on the Quest alphabet "e0".."e<n-1>".
func eventPermutation(r *rand.Rand, n int) func(string) string {
	perm := r.Perm(n)
	return func(name string) string {
		var id int
		fmt.Sscanf(name, "e%d", &id)
		return fmt.Sprintf("e%d", perm[id])
	}
}

// relabel renames events, labels each sequence by its original index and
// shuffles the upload order.
func relabel(db *seq.DB, n int, prefix string, rename func(string) string, r *rand.Rand) []record {
	out := make([]record, n)
	for i := 0; i < n; i++ {
		ev := make([]string, len(db.Seqs[i]))
		for j, e := range db.Seqs[i] {
			ev[j] = rename(db.Dict.Name(e))
		}
		out[i] = record{Label: fmt.Sprintf("%s%04d", prefix, i), Events: ev}
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// piece returns the k-th run of pieceLen events of the pool stream.
func (in *inputs) piece(k int) []string {
	out := make([]string, pieceLen)
	for j := range out {
		out[j] = in.pool[(k*pieceLen+j)%len(in.pool)]
	}
	return out
}

// batch returns append batch b of client c against database db: four
// records extend labels the client owns, four add labels new to the
// database. Every (db, c, b) yields a distinct, fixed batch.
func (in *inputs) batch(db string, c, b int) []record {
	own := in.owned[db][c]
	out := make([]record, batchRecords)
	for j := range out {
		k := b*batchRecords + j
		label := fmt.Sprintf("c%d-n%06d", c, b*batchRecords/2+j-batchRecords/2)
		if j < batchRecords/2 {
			label = own[(b*batchRecords/2+j)%len(own)]
		}
		out[j] = record{Label: label, Events: in.piece(2*k + c)}
	}
	return out
}

// tokens renders records in the tokens upload format ("label: e1 e2 ...").
func tokens(recs []record) []byte {
	var buf bytes.Buffer
	for _, rec := range recs {
		buf.WriteString(rec.Label)
		buf.WriteString(":")
		for _, e := range rec.Events {
			buf.WriteByte(' ')
			buf.WriteString(e)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// ndjson renders records as the append endpoint's NDJSON body.
func ndjson(recs []record) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		_ = enc.Encode(rec)
	}
	return buf.Bytes()
}

// userBytes is the size of the event data itself: labels and event names,
// one separator byte each. It is the denominator of storage amplification.
func userBytes(recs []record) int64 {
	var n int64
	for _, rec := range recs {
		n += int64(len(rec.Label)) + 1
		for _, e := range rec.Events {
			n += int64(len(e)) + 1
		}
	}
	return n
}
