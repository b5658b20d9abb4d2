package store

import (
	"fmt"
	"path/filepath"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// SegmentFileInfo describes one checkpoint segment file as found on
// disk. Err is non-empty when the file fails validation (bad magic,
// checksum mismatch, undecodable payload); recovery would skip it.
type SegmentFileInfo struct {
	Name       string `json:"name"`
	Generation uint64 `json:"generation"`
	Size       int64  `json:"size"`
	Sequences  int    `json:"sequences"` // 0 when Err is set
	Err        string `json:"error,omitempty"`
}

// WALFileInfo describes one write-ahead log file: how many intact
// records its valid prefix holds and whether a torn/corrupt tail follows
// (normal after a crash; recovery truncates it).
type WALFileInfo struct {
	Name       string `json:"name"`
	Base       uint64 `json:"base"` // generation the log applies on top of
	Size       int64  `json:"size"`
	ValidBytes int64  `json:"validBytes"`
	Records    int    `json:"records"`
	Torn       bool   `json:"torn"`
	Err        string `json:"error,omitempty"`
}

// DirReport is the result of Inspect: the storage files of one durable
// database plus the state a recovery would reconstruct from them.
type DirReport struct {
	Dir      string            `json:"dir"`
	Segments []SegmentFileInfo `json:"segments"`
	WALs     []WALFileInfo     `json:"wals"`

	// The recovered state (latest valid segment + WAL chain replay).
	// When RecoveryErr is non-empty the fields below it are zero.
	Generation        uint64 `json:"generation"`
	SegmentGeneration uint64 `json:"segmentGeneration"`
	NumSequences      int    `json:"numSequences"`
	DistinctEvents    int    `json:"distinctEvents"`
	TotalLength       int    `json:"totalLength"`
	RecoveryErr       string `json:"recoveryError,omitempty"`
}

// Corrupt reports whether the inspection found any damage: an unloadable
// or mismatched segment, a WAL that fails to scan or carries a torn or
// corrupt tail, or a recovery that cannot complete. Ops tooling maps it
// to a nonzero exit code.
func (r *DirReport) Corrupt() bool {
	if r.RecoveryErr != "" {
		return true
	}
	for _, s := range r.Segments {
		if s.Err != "" {
			return true
		}
	}
	for _, w := range r.WALs {
		if w.Err != "" || w.Torn {
			return true
		}
	}
	return false
}

// Inspect reads the storage files of a durable database directory
// through fsys without modifying anything (no truncation, no file
// creation, no live WAL handle) and reports both the per-file state and
// the outcome of a dry-run recovery. Safe on a directory a running store
// is using, though the report is then a racy point-in-time view.
func Inspect(fsys vfs.FS, dir string) (*DirReport, error) {
	l, err := listDir(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("store: inspect %s: %w", dir, err)
	}
	rep := &DirReport{Dir: dir}
	for _, s := range l.segments {
		info := SegmentFileInfo{Name: segmentFileName(s.gen), Generation: s.gen, Size: s.size}
		if g, db, err := readSegment(fsys, filepath.Join(dir, info.Name)); err != nil {
			info.Err = err.Error()
		} else if g != s.gen {
			info.Err = fmt.Sprintf("file name says generation %d, header says %d", s.gen, g)
		} else {
			info.Sequences = db.NumSequences()
		}
		rep.Segments = append(rep.Segments, info)
	}
	for _, w := range l.wals {
		info := WALFileInfo{Name: walFileName(w.gen), Base: w.gen, Size: w.size}
		records, valid, torn, err := wal.ScanFS(fsys, filepath.Join(dir, info.Name), nil)
		if err != nil {
			info.Err = err.Error()
		} else {
			info.Records, info.ValidBytes, info.Torn = records, valid, torn
		}
		rep.WALs = append(rep.WALs, info)
	}

	st, err := recoverDir(dir, l, Options{FS: fsys}, false)
	if err != nil {
		rep.RecoveryErr = err.Error()
		return rep, nil
	}
	snap := st.Current()
	sum := snap.Summary()
	rep.Generation = snap.Generation()
	rep.SegmentGeneration = st.dur.segGen
	rep.NumSequences = sum.NumSequences
	rep.DistinctEvents = sum.DistinctEvents
	rep.TotalLength = sum.TotalLength
	return rep, nil
}
