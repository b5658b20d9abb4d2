// Package wal implements the write-ahead log under the durable snapshot
// store: an append-only file of CRC32C-framed records with a configurable
// fsync policy. The log is the first stop of every durable append — a
// record is written (and, under SyncAlways, fsynced) here before the
// in-memory snapshot that contains it is published — so any state a
// client has been acknowledged can be reconstructed by replaying the log
// over the last checkpoint segment.
//
// Frame format (little-endian):
//
//	offset  size  field
//	0       4     payload length n
//	4       4     CRC32C over the length field and the payload
//	8       n     payload
//
// Torn writes — the tail of the file holding a frame that was only partly
// written when the process or machine died — are detected by the CRC (or
// by the frame extending past the end of the file) and are not an error:
// ScanFS stops cleanly at the last intact frame, and Open truncates the
// torn tail away so the next append starts on a clean boundary. A frame
// is either fully durable or it never happened; there is no state in
// which replay yields a corrupted record.
//
// The package deliberately knows nothing about what the payloads mean;
// the store layers its batch encoding on top.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// SyncPolicy selects when appends are made durable with fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append before it returns. The only
	// policy under which an acknowledged append can never be lost to a
	// machine crash (process crashes lose nothing under any policy: the
	// data is in the kernel page cache the moment Commit returns).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs in the background at a fixed interval. A machine
	// crash can lose up to one interval of acknowledged appends.
	SyncInterval
	// SyncNever never fsyncs explicitly; durability is whenever the OS
	// writes the page cache back. Fastest, weakest.
	SyncNever
)

// String returns the wire/flag name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParsePolicy maps a flag value to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// DefaultSyncInterval is the background fsync cadence under SyncInterval
// when Options.Interval is zero.
const DefaultSyncInterval = 100 * time.Millisecond

// ErrClosed is returned by operations on a closed log. Distinguishable
// from I/O failures so callers (the store's degraded-mode machinery) can
// tell an ordinary close race from a dying disk.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a Log.
type Options struct {
	// Policy selects the fsync policy. The zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the background fsync cadence under SyncInterval;
	// 0 selects DefaultSyncInterval.
	Interval time.Duration
	// FS overrides the filesystem the log performs its I/O through. Nil
	// selects the real OS filesystem; fault-injection tests install a
	// vfs.FaultFS here. The file handle is held in the Log struct, so
	// the append hot path pays one virtual call per I/O and no
	// allocation.
	FS vfs.FS
}

// frameHeaderSize is the fixed per-record overhead: 4-byte length +
// 4-byte CRC32C.
const frameHeaderSize = 8

// maxPayload bounds a single record. Far above any append batch the
// store writes; its real job is to let the Reader reject absurd length
// fields (from corruption) without attempting huge allocations.
const maxPayload = 1 << 30

// castagnoli is the CRC32C table (the polynomial used by iSCSI, ext4,
// and most storage formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCRC computes the frame checksum: CRC32C over the 4-byte length
// field followed by the payload, so a bit flip in the length is caught
// even when the flipped length still lands inside the file.
func frameCRC(lenField [4]byte, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, lenField[:])
	return crc32.Update(crc, castagnoli, payload)
}

// appendFrame appends one complete frame (header + payload) to dst,
// growing it as needed: the ONLY producer of the on-disk frame layout.
// The header is built inside dst's own storage rather than in a stack
// array: the hardware CRC32C kernel is assembly, so escape analysis would
// heap-copy a stack array sliced into it — one hidden allocation per
// record on the hot path.
func appendFrame(dst []byte, payload []byte) []byte {
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, payload...)
	hdr := dst[off : off+frameHeaderSize]
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[0:4])
	crc = crc32.Update(crc, castagnoli, dst[off+frameHeaderSize:])
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	return dst
}

// checkPayload validates a record payload before any state changes.
func checkPayload(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("wal: empty record")
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), maxPayload)
	}
	return nil
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	mu   sync.Mutex
	f    vfs.File
	path string
	opt  Options
	// buf is the reused frame-packing buffer (guarded by mu): every
	// write hands the file one buffer holding whole frames, so a commit
	// allocates nothing in steady state.
	buf []byte
	// size is the valid byte count (file size after torn-tail
	// truncation). Atomic, NOT guarded by mu: Size() is called from the
	// store's commit path (the auto-checkpoint threshold check right
	// after each apply), and taking mu there would serialize every
	// appender's next submission behind the fsync in flight — each
	// client's re-submit then lands just after the flush, every batch
	// degenerates to one record, and coalescing never happens. Writers
	// still update it under mu; only the read is lock-free.
	size atomic.Int64
	recs int // records in the log (replayed + appended)

	dirty bool  // bytes written since the last fsync
	err   error // sticky: first write/sync failure poisons the log

	// Commit statistics (guarded by mu): writes (batches) and the records
	// they carried, and every fsync the log issued on any path. syncs vs
	// records is the coalescing ratio operators watch.
	batches int64
	records int64
	syncs   int64

	stop chan struct{} // closes the SyncInterval goroutine
	done chan struct{}

	// com is the group committer, non-nil iff the policy is SyncAlways.
	// Set once in Open, never mutated after — Commit reads it without mu.
	com *committer
}

// Open opens (creating if needed) the log at path and positions it for
// appending. It replays the file in one pass over the handle it keeps:
// replay (when non-nil) is called with every intact record in append
// order, and the same pass finds the valid prefix and the record count
// (Records). A torn tail after the prefix is truncated away. An error
// from replay aborts the open and is returned as is.
func Open(path string, opt Options, replay func(payload []byte) error) (*Log, error) {
	return open(path, opt, replay, -1)
}

// OpenPrefix opens the log at path like Open, but keeps only its first n
// records: the pass that finds record n stops there, and everything after
// it is truncated away and fsynced, so record n+1 is never read. With at
// most n intact records it opens the log as Open does. The store uses it
// while healing a degraded log: a failed fsync can leave a fully written
// but never acknowledged frame on disk, and replaying that frame after
// recovery would advance the snapshot one generation past what the
// segment/WAL chain accounts for.
func OpenPrefix(path string, opt Options, n int) (*Log, error) {
	if n < 0 {
		return nil, fmt.Errorf("wal: open %s keeping a negative record count %d", path, n)
	}
	return open(path, opt, nil, n)
}

// open is Open (limit < 0) and OpenPrefix (keep the first limit records).
func open(path string, opt Options, replay func(payload []byte) error, limit int) (*Log, error) {
	f, err := vfs.Or(opt.FS).OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	r := &Reader{f: f, path: path}
	if err := r.each(limit, replay); err != nil {
		f.Close()
		return nil, err
	}
	if limit >= 0 {
		// The walk may have stopped before the end of the file (at
		// limit 0, before stating it at all).
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: stat %s: %w", path, err)
		}
		r.size = st.Size()
	}
	valid := r.off
	if r.size > valid {
		// Torn or corrupt tail from a crash mid-write, or records past
		// the kept prefix: drop it so the next frame starts on a clean
		// boundary. Nothing acknowledged lives in a torn tail —
		// acknowledgment happens after the full frame write (and, under
		// SyncAlways, its fsync) returned.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync %s: %w", path, err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l := &Log{f: f, path: path, opt: opt, recs: r.rec}
	l.size.Store(valid)
	if opt.Policy == SyncInterval {
		interval := opt.Interval
		if interval <= 0 {
			interval = DefaultSyncInterval
		}
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop(interval, l.stop, l.done)
	}
	if opt.Policy == SyncAlways {
		l.com = newCommitter(l)
	}
	return l, nil
}

// syncLoop is the SyncInterval background fsync. The stop/done channels
// are parameters (not read from the struct) because Close nils the
// fields while this goroutine is still draining.
func (l *Log) syncLoop(interval time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			l.mu.Lock()
			l.syncLocked()
			l.mu.Unlock()
		}
	}
}

// Path returns the file path of the log.
func (l *Log) Path() string { return l.path }

// Size returns the current byte size of the valid log. Lock-free, so
// hot-path callers (the store's checkpoint-threshold check) never
// serialize against an fsync in flight.
func (l *Log) Size() int64 {
	return l.size.Load()
}

// Records returns the number of intact records in the log.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// Err returns the sticky error that poisoned the log, or nil while the
// log is healthy. The store surfaces it in durability reports so ENOSPC
// is distinguishable from EIO without string matching.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Commit writes one record and returns its 1-based record number within
// this log: rec records exist once this one is written, so a store basing
// the log at generation g knows this record's apply produces generation
// g+rec. It is the log's only write entry. Under SyncAlways the record is
// fsynced before Commit returns — a nil error means it survives any crash
// — and concurrent Commits are coalesced by the group committer into one
// write and ONE fsync (commit.go). Under the weaker policies the record is
// one frame sent in a single write; the fsync is the policy's.
//
// A write or sync failure poisons the log: every record in the failing
// write gets the same root error, and every later call returns it,
// because a partial frame may be on disk and appending after it would be
// unrecoverable garbage (on restart, Open truncates the partial frame
// away).
func (l *Log) Commit(payload []byte) (rec int, err error) {
	if err := checkPayload(payload); err != nil {
		return 0, err
	}
	if c := l.com; c != nil {
		return c.commit(payload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendFrame(l.buf[:0], payload)
	prev, err := l.writeLocked(1)
	if err != nil {
		return 0, err
	}
	return prev + 1, nil
}

// writeLocked writes the n whole frames packed in l.buf with one Write
// and, under SyncAlways, one fsync. It returns the number of records that
// preceded them, so they are records prev+1..prev+n. Caller holds l.mu.
func (l *Log) writeLocked(n int) (prev int, err error) {
	if l.err != nil {
		return 0, l.err
	}
	if l.f == nil {
		return 0, ErrClosed
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: write: %w", err)
		return 0, l.err
	}
	l.size.Add(int64(len(l.buf)))
	prev = l.recs
	l.recs += n
	l.dirty = true
	if l.opt.Policy == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	l.batches++
	l.records += int64(n)
	return prev, nil
}

// CommitStats reports commit activity: the writes (batches) Commit
// issued and the records they carried, and the number of fsyncs the log
// issued on any path. Under SyncAlways every batch is one fsync, so
// Records/Batches is the achieved coalescing factor and Syncs/Records
// (for a commit-only workload) the per-record fsync cost concurrency
// amortizes away; under the weaker policies every batch is one record.
type CommitStats struct {
	Batches int64
	Records int64
	Syncs   int64
}

// CommitStats returns the log's commit counters.
func (l *Log) CommitStats() CommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CommitStats{Batches: l.batches, Records: l.records, Syncs: l.syncs}
}

// Sync fsyncs any unsynced appends. A no-op when nothing is dirty.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.f == nil {
		return ErrClosed
	}
	return l.syncLocked()
}

// syncLocked fsyncs under l.mu.
func (l *Log) syncLocked() error {
	if l.err != nil || !l.dirty {
		return l.err
	}
	l.syncs++
	if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync: %w", err)
		return l.err
	}
	l.dirty = false
	return nil
}

// Close flushes, fsyncs, and closes the log. Queued group commits are
// flushed as a final batch before the file closes; commits that never
// reached the committer fail with ErrClosed. Safe to call twice.
func (l *Log) Close() error {
	if c := l.com; c != nil {
		// Stop the committer before taking mu: its final flush needs mu.
		c.shutdown()
	}
	l.mu.Lock()
	if l.stop != nil {
		close(l.stop)
		done := l.done
		l.stop, l.done = nil, nil
		// The sync loop may be blocked on l.mu; release it for the handoff.
		l.mu.Unlock()
		<-done
		l.mu.Lock()
	}
	defer l.mu.Unlock()
	if l.f == nil {
		return l.err
	}
	syncErr := l.syncLocked()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	if closeErr != nil {
		return fmt.Errorf("wal: close: %w", closeErr)
	}
	return nil
}

// ScanFS replays the intact record prefix of the log file at path
// without modifying it, calling fn (when non-nil) for every record in
// append order. The payload passed to fn is only valid during the call.
// It returns the number of intact records, the byte length of the valid
// prefix, and whether a torn or corrupt tail follows it (torn tails are
// normal after a crash and are not an error). fn returning an error
// aborts the scan with that error.
func ScanFS(fsys vfs.FS, path string, fn func(payload []byte) error) (records int, valid int64, torn bool, err error) {
	r, err := OpenReader(fsys, path)
	if err != nil {
		return 0, 0, false, err
	}
	defer r.Close()
	if err := r.each(-1, fn); err != nil {
		return r.rec, r.off, false, err
	}
	return r.rec, r.off, r.size > r.off, nil
}
