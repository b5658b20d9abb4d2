package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/store"
	"repro/internal/vfs"
)

// MetaFile is the marker a follower keeps next to its storage files. Its
// presence is what distinguishes a replica directory from a primary one:
// recovery refuses to serve a replica directory as a primary (stale data
// masquerading as current) and vice versa. It is removed only at
// promotion, after the WAL tail is sealed — so a crash at any point of a
// promotion leaves the directory still marked as a replica, which is the
// safe side.
const MetaFile = "replica.meta"

// Meta records whose replica a directory is.
type Meta struct {
	// Upstream is the primary's base URL.
	Upstream string `json:"upstream"`
	// Database is the database name on the primary.
	Database string `json:"database"`
	// Epoch is the primary lineage the local state was replicated from.
	Epoch string `json:"epoch"`
}

// ReadMeta loads the replica marker of dir. A directory that is not a
// replica returns an error wrapping fs.ErrNotExist.
func ReadMeta(fsys vfs.FS, dir string) (Meta, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, fmt.Errorf("repl: parse %s: %w", MetaFile, err)
	}
	return m, nil
}

// HasMeta reports whether dir is marked as a replica.
func HasMeta(fsys vfs.FS, dir string) bool {
	_, err := ReadMeta(fsys, dir)
	return err == nil
}

// WriteMeta durably installs the replica marker: temp file + fsync +
// rename + directory fsync, so the marker either exists complete or not
// at all.
func WriteMeta(fsys vfs.FS, dir string, m Meta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, MetaFile), data); err != nil {
		return fmt.Errorf("repl: write %s: %w", MetaFile, err)
	}
	return nil
}

// RemoveMeta durably removes the replica marker, switching the
// directory's on-disk identity to primary.
func RemoveMeta(fsys vfs.FS, dir string) error {
	if err := fsys.Remove(filepath.Join(dir, MetaFile)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	return fsys.SyncDir(dir)
}

// PromoteDir promotes a replica directory offline (the `gsgrow promote`
// path, for when the primary — or the follower process — is gone): it
// verifies the directory is a replica, opens the store (sealing any torn
// WAL tail), checkpoints so the promoted state is compact, and removes
// the replica marker last, so a crash mid-promotion leaves the directory
// still a replica. Returns the generation the promoted store serves.
func PromoteDir(dir string, opt store.Options) (gen uint64, err error) {
	fsys := vfs.Or(opt.FS)
	if _, err := ReadMeta(fsys, dir); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("repl: %s is not a replica directory (no %s)", dir, MetaFile)
		}
		return 0, err
	}
	st, err := store.Open(dir, opt)
	if err != nil {
		return 0, fmt.Errorf("repl: promote %s: %w", dir, err)
	}
	gen = st.Current().Generation()
	cperr := st.Checkpoint()
	if err := st.Close(); err != nil {
		return 0, fmt.Errorf("repl: promote %s: %w", dir, err)
	}
	if cperr != nil {
		return 0, fmt.Errorf("repl: promote %s: checkpoint: %w", dir, cperr)
	}
	if err := RemoveMeta(fsys, dir); err != nil {
		return 0, fmt.Errorf("repl: promote %s: %w", dir, err)
	}
	return gen, nil
}
