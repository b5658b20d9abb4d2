// Package vfs abstracts the handful of filesystem operations the durable
// layer performs (create, open, rename, remove, read-dir, sync, dir-fsync)
// behind an interface pair so tests can inject faults at any single I/O
// operation. Production code uses OS, a zero-cost passthrough whose File
// values ARE *os.File — no wrapper is allocated, so the WAL append hot
// path pays exactly one virtual call per operation and zero allocations.
//
// The fault-injecting implementation lives in faultfs.go; it wraps every
// file in a counting shim and fires configured faults (ENOSPC, EIO, short
// writes, failed fsyncs) at the Nth operation or on paths matching a
// substring, which is what lets the integration suite sweep "what if THIS
// exact write failed" across an entire workload.
package vfs

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the WAL and segment store use. OSFS
// returns *os.File values directly (it satisfies this interface), so the
// passthrough adds no allocation and no extra indirection.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Seek(offset int64, whence int) (int64, error)
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
}

// FS is the filesystem surface of the durable layer. Every path-taking
// operation the WAL and store perform goes through exactly one of these
// methods, which is what makes a single-fault sweep exhaustive: counting
// calls on a passthrough run enumerates every injectable point.
type FS interface {
	// OpenFile opens with the given flags and mode, like os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens for reading, like os.Open.
	Open(name string) (File, error)
	// CreateTemp creates a new temporary file in dir, like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole named file, like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename atomically renames oldpath to newpath, like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove removes the named file, like os.Remove.
	Remove(name string) error
	// MkdirAll creates a directory path, like os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory, like os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs the directory itself, making a preceding rename or
	// remove in it durable.
	SyncDir(dir string) error
}

// OS is the production filesystem: every method forwards to the os
// package and File values are *os.File.
var OS FS = osFS{}

// Or returns fsys, or OS when fsys is nil: the one default for every
// configuration field where nil means "the real filesystem".
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// WriteTemp writes data to a new temp file in dir (named by pattern, as
// for CreateTemp) and fsyncs it: the bytes are durable but not yet
// visible under any name recovery reads. Publish the file with Install.
// On failure the temp file is removed.
func WriteTemp(fsys FS, dir, pattern string, data []byte) (string, error) {
	tmp, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return "", err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(name)
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(name)
		return "", err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(name)
		return "", err
	}
	return name, nil
}

// Install atomically publishes a temp file written by WriteTemp as path
// (same directory) and fsyncs the directory, so the rename survives a
// crash. On failure the temp file is removed.
func Install(fsys FS, tmp, path string) error {
	err := fsys.Rename(tmp, path)
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(path))
	}
	if err != nil {
		fsys.Remove(tmp)
	}
	return err
}

// WriteFileAtomic durably replaces path with data: temp file + fsync +
// rename + directory fsync, so after a crash path holds either the new
// contents complete or whatever it held before.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	tmp, err := WriteTemp(fsys, filepath.Dir(path), filepath.Base(path)+".tmp", data)
	if err != nil {
		return err
	}
	return Install(fsys, tmp, path)
}
