package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/vfs"
)

// readAhead is the least a Reader reads from its file at once: frames
// are decoded out of one reusable block buffer, so replaying N small
// records costs about N·frameSize/readAhead reads instead of 2N.
const readAhead = 64 << 10

// Reader is a record-position cursor over a WAL file, and the one
// decoder of the frame format: Open and OpenPrefix replay a log through
// it, ScanFS walks it, and the replication feed tails a primary's live
// WAL with it. It hands out records one at a time and can be re-polled
// after reporting end-of-log, so frames appended after the Reader was
// opened become visible without reopening.
//
// The cursor caches the file size and re-states it only when the next
// frame runs past the cached size: reading N records already on disk
// costs one Stat, not N. It reads the file in blocks of at least
// readAhead bytes (never past the cached size) and decodes frames from
// the block, refilling it from the cursor when a frame runs past its end.
//
// A Reader never trusts a partially visible frame: a frame whose header,
// body, or CRC does not fully check out against the file size is
// indistinguishable from a write in progress, so Next reports "no record
// yet" rather than an error. The caller decides whether that means "poll
// again" (live tail) or "torn tail" (file known to be sealed).
//
// A Reader is not safe for concurrent use.
type Reader struct {
	f    vfs.File
	path string
	size int64 // file size as last stated
	off  int64 // byte offset of the next frame header
	rec  int   // records returned so far
	// blk holds the file's bytes [blkOff, blkOff+len(blk)).
	blk    []byte
	blkOff int64
}

// OpenReader opens a cursor at the first record of the WAL file at path.
func OpenReader(fsys vfs.FS, path string) (*Reader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return &Reader{f: f, path: path}, nil
}

// Next returns the next intact record. ok is false when no complete,
// CRC-valid frame is available at the current position — either the live
// tail (the writer has not finished the next frame yet; poll again later)
// or a torn/corrupt tail (if the file is sealed, nothing more is coming).
// The returned payload is only valid until the next call to Next, Skip or
// Refresh.
func (r *Reader) Next() (payload []byte, ok bool, err error) {
	payload, short, err := r.frame()
	if short {
		// The frame runs past the size last stated; the file may have
		// grown since.
		st, serr := r.f.Stat()
		if serr != nil {
			return nil, false, fmt.Errorf("wal: stat %s: %w", r.path, serr)
		}
		if st.Size() == r.size {
			return nil, false, nil
		}
		r.size = st.Size()
		// The block may hold the partial frame as it was then.
		r.Refresh()
		payload, _, err = r.frame()
	}
	return payload, payload != nil, err
}

// frame decodes the frame at the cursor against the cached file size and,
// when it is intact, advances past it and returns its payload. short
// reports a header or body that runs past the cached size. A nil payload
// that is not short is a corrupt frame: an absurd length field or a CRC
// mismatch. A frame is only read once it fits the cached size, and reads
// never go past it, so a corrupt length can never force an allocation
// larger than the file.
func (r *Reader) frame() (payload []byte, short bool, err error) {
	remaining := r.size - r.off
	if remaining < frameHeaderSize {
		return nil, true, nil
	}
	hdr, err := r.window(frameHeaderSize)
	if err != nil {
		return nil, false, fmt.Errorf("wal: read frame header %s: %w", r.path, err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if n == 0 || n > maxPayload {
		return nil, false, nil
	}
	if n > remaining-frameHeaderSize {
		return nil, true, nil
	}
	fr, err := r.window(frameHeaderSize + n)
	if err != nil {
		return nil, false, fmt.Errorf("wal: read frame payload %s: %w", r.path, err)
	}
	payload = fr[frameHeaderSize:]
	if frameCRC([4]byte(fr[0:4]), payload) != binary.LittleEndian.Uint32(fr[4:8]) {
		return nil, false, nil
	}
	r.off += frameHeaderSize + n
	r.rec++
	return payload, false, nil
}

// window returns the n file bytes at the cursor (n <= size-off): from the
// block when it holds them, else by refilling the block from the cursor
// with one read of max(n, readAhead) bytes, capped at the cached size.
func (r *Reader) window(n int64) ([]byte, error) {
	if lo := r.off - r.blkOff; lo >= 0 && lo+n <= int64(len(r.blk)) {
		return r.blk[lo : lo+n], nil
	}
	want := min(max(n, readAhead), r.size-r.off)
	if int64(cap(r.blk)) < want {
		r.blk = make([]byte, want)
	}
	got, err := r.f.ReadAt(r.blk[:want], r.off)
	if err != nil && !(errors.Is(err, io.EOF) && int64(got) >= n) {
		r.blk = r.blk[:0]
		return nil, err
	}
	r.blk, r.blkOff = r.blk[:got], r.off
	return r.blk[:n], nil
}

// Refresh forgets the bytes read ahead, so the next record is read from
// the file again. Bytes past the last record a writer acknowledged are
// not final: a writer recovering from a failed sync truncates frames it
// never acknowledged and writes new ones in their place, so a reader
// tailing a live log refreshes whenever the writer acknowledges more
// records (store.ChainReader does, on its own).
func (r *Reader) Refresh() { r.blk = r.blk[:0] }

// each calls fn (when non-nil) for every intact record ahead of the
// cursor, stopping cleanly at the first torn, corrupt or unwritten frame,
// or once the cursor has consumed limit records (limit < 0: no limit).
// fn returning an error stops the walk with that error.
func (r *Reader) each(limit int, fn func(payload []byte) error) error {
	for limit < 0 || r.rec < limit {
		p, ok, err := r.Next()
		if !ok || err != nil {
			return err
		}
		if fn != nil {
			if err := fn(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Skip advances past the next n records without returning their payloads.
// It fails if fewer than n intact records are available — the caller
// asked to resume past a position this file does not (yet) contain, which
// for replication means the positions have diverged.
func (r *Reader) Skip(n int) error {
	for i := 0; i < n; i++ {
		_, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("wal: skip %d records in %s: only %d available", n, r.path, i)
		}
	}
	return nil
}

// Offset returns the byte offset of the next frame header — equivalently,
// the byte length of the records consumed so far.
func (r *Reader) Offset() int64 { return r.off }

// Records returns how many records the cursor has consumed.
func (r *Reader) Records() int { return r.rec }

// Close releases the underlying file handle.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
