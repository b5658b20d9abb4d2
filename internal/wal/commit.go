package wal

import (
	"sync"
	"sync/atomic"
	"time"
)

// Group commit: under SyncAlways every append pays an fsync, so durable
// throughput is capped at one disk flush per record no matter how many
// goroutines are appending. The committer collapses that: concurrent
// Commit calls hand their payloads to a single goroutine that packs
// every record arriving within the commit window into one buffered
// write, issues ONE fsync, and then completes each waiter with its
// assigned record number. Throughput scales with offered load — the
// fsync cost is divided across the batch — while the contract per
// record is unchanged: a nil error means that record is on stable
// storage.
//
// Failure semantics are the log's: the first write or sync error poisons
// the log (sticky l.err), every record in the failing batch gets the
// same typed root error exactly once, and every later commit fails fast
// with the sticky error. A batch therefore never partially succeeds:
// successes form a strict prefix of the record sequence, which is what
// lets the store apply records in WAL order.
//
// Latency: a lone committer never waits out the window. The pending
// counter is incremented before a submitter enqueues, so when the
// channel is empty and pending is zero the committer knows no one is en
// route and commits immediately — single-client latency stays within
// one scheduling handoff of a lone fsync, and the fsync duration itself
// becomes the natural batching window under load.

// The commit window: a batch closes at commitMaxBatch records or
// commitMaxWait, whichever comes first. 64 records amortize one fsync
// down to ~1/64th per record; 1ms bounds the latency a lone straggler
// can add.
const (
	commitMaxBatch = 64
	commitMaxWait  = time.Millisecond
)

// commitResult completes one waiter: its 1-based record number in the
// log, or the error that failed its batch.
type commitResult struct {
	rec int
	err error
}

// commitReq is one queued record and the channel its waiter blocks on.
type commitReq struct {
	payload []byte
	resp    chan commitResult
}

// respPool recycles waiter channels so steady-state Commit allocates
// nothing. A channel is returned only after its single result was read.
var respPool = sync.Pool{New: func() any { return make(chan commitResult, 1) }}

// committer is the group-commit stage of a Log.
type committer struct {
	l *Log

	ch      chan commitReq
	pending atomic.Int64 // submitters past the closed-check, not yet collected

	// closeMu serializes submissions against shutdown: shutdown flips
	// closed under the write lock, after which no submitter can be
	// blocked sending — so the final drain cannot strand a waiter.
	closeMu sync.RWMutex
	closed  bool

	once sync.Once
	stop chan struct{}
	done chan struct{}

	last int // previous batch size, committer goroutine only
}

// newCommitter starts the committer goroutine for l.
func newCommitter(l *Log) *committer {
	c := &committer{
		l:    l,
		ch:   make(chan commitReq, commitMaxBatch),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.loop()
	return c
}

// commit submits one payload (already validated) and blocks until its
// batch is durable or failed.
func (c *committer) commit(payload []byte) (rec int, err error) {
	resp := respPool.Get().(chan commitResult)
	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		respPool.Put(resp)
		return 0, ErrClosed
	}
	c.pending.Add(1)
	c.ch <- commitReq{payload: payload, resp: resp}
	c.closeMu.RUnlock()
	res := <-resp
	respPool.Put(resp)
	return res.rec, res.err
}

// shutdown stops accepting commits, lets the committer flush whatever is
// queued as a final batch, and waits for it to exit. Idempotent.
func (c *committer) shutdown() {
	c.once.Do(func() {
		c.closeMu.Lock()
		c.closed = true
		c.closeMu.Unlock()
		close(c.stop)
		<-c.done
	})
}

// loop is the committer goroutine: collect a batch, commit it, repeat.
func (c *committer) loop() {
	defer close(c.done)
	reqs := make([]commitReq, 0, commitMaxBatch)
	var timer *time.Timer
	for {
		// Wait for the batch opener.
		select {
		case <-c.stop:
			c.drainClosed(reqs)
			return
		case req := <-c.ch:
			c.pending.Add(-1)
			reqs = append(reqs, req)
		}

		// Fill the batch: take everything already queued, and wait out
		// the commit window while either (a) some submitter is provably
		// en route (pending > 0), or (b) the batch is still smaller than
		// the PREVIOUS one. (b) is batch-size momentum, and it is what
		// sustains coalescing in the store's pipeline: an appender only
		// submits its next record after its previous one applied, and
		// applies chain through the store mutex — so at the instant the
		// committer checks, concurrent appenders are often mid-apply with
		// pending == 0, about to submit. The previous batch size is the
		// cheapest honest estimate of how many are coming; a lone
		// appender (last == 1) still commits with zero waiting. The timer
		// bounds the total window from the batch opener, not per record.
		var deadline <-chan time.Time
	fill:
		for len(reqs) < commitMaxBatch {
			select {
			case req := <-c.ch:
				c.pending.Add(-1)
				reqs = append(reqs, req)
				continue
			case <-c.stop:
				break fill
			default:
			}
			if c.pending.Load() == 0 && len(reqs) >= c.last {
				break fill
			}
			if deadline == nil {
				if timer == nil {
					timer = time.NewTimer(commitMaxWait)
				} else {
					timer.Reset(commitMaxWait)
				}
				deadline = timer.C
			}
			select {
			case req := <-c.ch:
				c.pending.Add(-1)
				reqs = append(reqs, req)
			case <-deadline:
				deadline = nil
				break fill
			case <-c.stop:
				break fill
			}
		}
		if deadline != nil && !timer.Stop() {
			<-timer.C
		}

		c.last = len(reqs)
		c.commitBatch(reqs)
		for i := range reqs {
			reqs[i] = commitReq{} // drop payload references
		}
		reqs = reqs[:0]
	}
}

// drainClosed flushes every request accepted before shutdown. By the
// time stop is closed, shutdown has held the closeMu write lock, so no
// submitter is between its closed-check and its send: pending counts
// exactly the requests already sitting in the channel, and receiving
// that many can never block. They were accepted while the log was open,
// so they are committed (in commitMaxBatch chunks), not failed.
func (c *committer) drainClosed(reqs []commitReq) {
	for c.pending.Load() > 0 {
		req := <-c.ch
		c.pending.Add(-1)
		reqs = append(reqs, req)
		if len(reqs) == commitMaxBatch {
			c.commitBatch(reqs)
			reqs = reqs[:0]
		}
	}
	if len(reqs) > 0 {
		c.commitBatch(reqs)
	}
}

// commitBatch writes every queued record as one buffered write + one
// fsync and completes the waiters. Success assigns consecutive record
// numbers; any failure fails the whole batch with the same root error
// and leaves the log poisoned (sticky error).
func (c *committer) commitBatch(reqs []commitReq) {
	l := c.l
	l.mu.Lock()
	l.buf = l.buf[:0]
	for _, r := range reqs {
		l.buf = appendFrame(l.buf, r.payload)
	}
	prev, err := l.writeLocked(len(reqs))
	l.mu.Unlock()
	for i, r := range reqs {
		res := commitResult{err: err}
		if err == nil {
			res.rec = prev + i + 1
		}
		r.resp <- res
	}
}
