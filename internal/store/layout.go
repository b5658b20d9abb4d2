package store

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// The layout of a database directory, decided here and nowhere else:
//
//	segment-<gen>.seg       immutable checkpoint: the database at <gen>
//	segment-<gen>.seg.tmp*  a segment being written; never read
//	wal-<base>.log          write-ahead tail: batches on top of <base>
//
// <gen> and <base> are 16 lowercase hex digits, so lexical order is
// generation order. Record r (1-based) of the WAL based at b produces
// generation b+r. The chain rule: the WAL with the largest base below g
// holds generation g, and each WAL must start where the previous one
// ended. listDir is the one reader of the directory; recovery, the
// checkpoint and reset sweeps, Inspect and the replication feed's
// ChainReader all work from its listing.

const (
	segmentPrefix = "segment-"
	segmentSuffix = ".seg"
	walPrefix     = "wal-"
	walSuffix     = ".log"
	// tempMarker marks a segment temp file: segment-<gen>.seg.tmp<random>.
	tempMarker = segmentSuffix + ".tmp"
)

func segmentFileName(gen uint64) string {
	return fmt.Sprintf("%s%016x%s", segmentPrefix, gen, segmentSuffix)
}

func walFileName(base uint64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, base, walSuffix)
}

// parseName extracts the generation from a canonical storage file name.
func parseName(name, prefix, suffix string) (gen uint64, ok bool) {
	hex, okp := strings.CutPrefix(name, prefix)
	hex, oks := strings.CutSuffix(hex, suffix)
	if !okp || !oks || len(hex) != 16 {
		return 0, false
	}
	gen, err := strconv.ParseUint(hex, 16, 64)
	return gen, err == nil && fmt.Sprintf("%016x", gen) == hex
}

// storageFile is one segment or WAL of a listing: the generation in its
// name (a segment's checkpoint generation, a WAL's base) and its size
// when listed.
type storageFile struct {
	gen  uint64
	size int64
}

// listing is what a database directory holds, as listDir read it.
// Anything that is not a storage file is left out and never touched.
type listing struct {
	segments []storageFile // ascending generation
	wals     []storageFile // ascending base
	temps    []string      // leftover segment temp files
}

// listDir reads dir once and sorts its storage files. It is the only
// function that lists a database directory.
func listDir(fsys vfs.FS, dir string) (*listing, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &listing{}
	for _, e := range entries { // ReadDir sorts by name: generation order
		name := e.Name()
		if strings.Contains(name, tempMarker) {
			l.temps = append(l.temps, name)
			continue
		}
		var size int64
		if fi, err := e.Info(); err == nil {
			size = fi.Size()
		}
		if gen, ok := parseName(name, segmentPrefix, segmentSuffix); ok {
			l.segments = append(l.segments, storageFile{gen, size})
		} else if base, ok := parseName(name, walPrefix, walSuffix); ok {
			l.wals = append(l.wals, storageFile{base, size})
		}
	}
	return l, nil
}

// sweepAll, passed to sweep as the checkpoint generation, removes every
// segment and WAL: no segment carries it and no WAL is based at or above
// it.
const sweepAll = math.MaxUint64

// sweep removes the storage files a checkpoint at generation keep
// supersedes: every segment but keep's, every WAL based below keep, and
// every segment temp file. It carries on past a failed removal and
// returns the first failure.
func (l *listing) sweep(fsys vfs.FS, dir string, keep uint64) error {
	names := l.temps
	for _, s := range l.segments {
		if s.gen != keep {
			names = append(names, segmentFileName(s.gen))
		}
	}
	for _, w := range l.wals {
		if w.gen < keep {
			names = append(names, walFileName(w.gen))
		}
	}
	var first error
	for _, name := range names {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && first == nil {
			first = fmt.Errorf("store: sweep %s: %w", name, err)
		}
	}
	return first
}

// ErrChainGap marks a WAL chain that cannot serve a position: a WAL
// holding records does not start where the chain reached, or the files
// that held the position were swept by a checkpoint. Recovery fails on
// it; a replication follower re-bootstraps.
var ErrChainGap = errors.New("WAL chain gap")

// holder returns the base of the WAL holding generation g: the largest
// base below g.
func (l *listing) holder(g uint64) (base uint64, ok bool) {
	for _, w := range l.wals {
		if w.gen < g {
			base, ok = w.gen, true
		}
	}
	return base, ok
}

// next applies the chain rule where a chain file ends: the WAL based at
// after was read up to generation end, and the chain continues in the
// next WAL in base order only if that one is based exactly at end. An
// out-of-chain WAL that holds no intact record is passed over: a crash
// inside a checkpoint's rotation window under a weak fsync policy leaves
// an empty rotated WAL past the generation replay can reach, and the lost
// tail is the policy's documented bound. One that holds records cannot
// come from any crash ordering, and is ErrChainGap. ok is false when no
// WAL continues the chain.
func (l *listing) next(fsys vfs.FS, dir string, after, end uint64) (base uint64, ok bool, err error) {
	for _, w := range l.wals {
		switch {
		case w.gen <= after:
		case w.gen == end:
			return w.gen, true, nil
		default:
			if n, _, _, err := wal.ScanFS(fsys, filepath.Join(dir, walFileName(w.gen)), nil); err != nil || n > 0 {
				// Worded as recovery reports it; the feed only tests the sentinel.
				return 0, false, fmt.Errorf("%w: have non-empty %s but recovery reached generation %d", ErrChainGap, walFileName(w.gen), end)
			}
		}
	}
	return 0, false, nil
}

// ChainReader reads a database directory's WAL chain record by record,
// from the record that produces a given generation on, following
// rotations into the next chain file. The replication feed tails a live
// primary through it.
type ChainReader struct {
	fsys vfs.FS
	dir  string
	next uint64      // generation the next record produces
	rd   *wal.Reader // the chain file being read; nil until resolved
	base uint64      // base of rd's file
	// through is the acknowledged generation of the last Next call; rd's
	// read-ahead block was read while it held.
	through uint64
}

// NewChainReader returns a reader positioned at the record of dir's WAL
// chain that produces generation next. It opens nothing until Next.
func NewChainReader(fsys vfs.FS, dir string, next uint64) *ChainReader {
	return &ChainReader{fsys: fsys, dir: dir, next: next}
}

// Next returns the record that produces the reader's next generation and
// advances past it, provided that generation is at most through, the
// last one the writer has acknowledged. ok is false past through, and
// when the record is not visible yet: the live tail, or a checkpoint
// sweeping the file between listing and open; poll again. An error
// wrapping ErrChainGap means the directory cannot serve the position at
// all.
//
// Bytes past the acknowledged records are not final: a writer recovering
// from a failed sync truncates the frames it never acknowledged and
// writes new ones in their place. So whenever through moves, the reader
// forgets what it read ahead and reads the file afresh; a block read
// while through was unchanged is trusted only up to through.
func (c *ChainReader) Next(through uint64) (payload []byte, ok bool, err error) {
	if through != c.through {
		c.through = through
		if c.rd != nil {
			c.rd.Refresh()
		}
	}
	if c.next > through {
		return nil, false, nil
	}
	for {
		if c.rd != nil {
			p, ok, err := c.rd.Next()
			if ok {
				c.next++
			}
			if ok || err != nil {
				return p, ok, err
			}
		}
		l, err := listDir(c.fsys, c.dir)
		if err != nil {
			return nil, false, err
		}
		var base uint64
		if c.rd == nil {
			if base, ok = l.holder(c.next); !ok {
				return nil, false, fmt.Errorf("%w: no WAL holds generation %d", ErrChainGap, c.next)
			}
		} else if base, ok, err = l.next(c.fsys, c.dir, c.base, c.next-1); !ok || err != nil {
			// The file ended at generation next-1 and no WAL continues
			// there yet (or one breaks the chain).
			return nil, false, err
		}
		if err := c.open(base); err != nil || c.rd == nil {
			return nil, false, err
		}
	}
}

// open moves the reader to the WAL based at base, before the record
// producing c.next. A file swept since the listing leaves c.rd nil, and
// the next call re-resolves.
func (c *ChainReader) open(base uint64) error {
	c.Close()
	c.rd = nil
	rd, err := wal.OpenReader(c.fsys, filepath.Join(c.dir, walFileName(base)))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := rd.Skip(int(c.next - base - 1)); err != nil {
		// The file does not hold the records its name promises: local
		// truncation or damage.
		rd.Close()
		return fmt.Errorf("%w: %v", ErrChainGap, err)
	}
	c.rd, c.base = rd, base
	return nil
}

// Pending returns how many WAL bytes lie beyond the reader's position:
// the unread rest of the file it reads plus every later WAL in full.
func (c *ChainReader) Pending() (uint64, error) {
	l, err := listDir(c.fsys, c.dir)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, w := range l.wals {
		switch {
		case c.rd != nil && w.gen == c.base:
			n += uint64(max(w.size-c.rd.Offset(), 0))
		case w.gen >= c.next-1:
			// Every record of this file produces a later generation.
			n += uint64(w.size)
		}
	}
	return n, nil
}

// Close releases the file the reader holds open.
func (c *ChainReader) Close() error {
	if c.rd == nil {
		return nil
	}
	return c.rd.Close()
}

// LatestSegment returns the newest checkpoint segment image in dir and
// the generation its name carries, as raw bytes: they carry their own
// CRC, which the receiver re-validates. ok is false when dir holds no
// segment.
func LatestSegment(fsys vfs.FS, dir string) (data []byte, gen uint64, ok bool, err error) {
	l, err := listDir(fsys, dir)
	if err != nil || len(l.segments) == 0 {
		return nil, 0, false, err
	}
	gen = l.segments[len(l.segments)-1].gen
	data, err = fsys.ReadFile(filepath.Join(dir, segmentFileName(gen)))
	if err != nil {
		return nil, 0, false, fmt.Errorf("store: read segment: %w", err)
	}
	return data, gen, true, nil
}

// ResetFromSegment validates a serialized segment image and makes it the
// only storage file in dir, returning the generation it holds: the
// follower's (re-)bootstrap, where the image arrives over the feed and
// the local state is absent or proven divergent. Files that are not
// storage files (metadata, sibling content) are left alone.
func ResetFromSegment(fsys vfs.FS, dir string, data []byte) (gen uint64, err error) {
	gen, _, err = decodeSegment(data)
	if err != nil {
		return 0, err
	}
	return gen, resetDir(fsys, dir, gen, data)
}

// resetDir makes the segment image data for gen the only storage file in
// dir. The image is written and fsynced under a temp name before any old
// file is touched, so a failure up to there leaves the previous contents
// as they were; then every storage file is swept and the image installed
// — a window holding nothing but unlink/rename metadata operations.
func resetDir(fsys vfs.FS, dir string, gen uint64, data []byte) error {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Listed before the temp exists, so the sweep cannot take it.
	l, err := listDir(fsys, dir)
	if err != nil {
		return err
	}
	tmp, err := writeSegmentTemp(fsys, dir, gen, data)
	if err != nil {
		return err
	}
	if err := l.sweep(fsys, dir, sweepAll); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return installSegment(fsys, tmp, dir, gen)
}
