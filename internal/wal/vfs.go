package wal

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// FS is the narrow filesystem surface the durability layer writes
// through. Production code uses OSFS; tests inject a FaultFS to make
// short writes, fsync failures and ENOSPC deterministic instead of
// praying for a flaky disk. Every file mutation in this package — and
// in internal/checkpoint, which shares the seam — goes through an FS,
// so a fault injected here is a fault injected everywhere that
// matters.
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename is os.Rename.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// Stat is os.Stat.
	Stat(name string) (os.FileInfo, error)
}

// File is the open-file surface behind FS.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync is File.Sync: the durability barrier.
	Sync() error
	// Truncate shrinks the file; recovery uses it to cut a torn tail.
	Truncate(size int64) error
	// Name reports the path the file was opened with.
	Name() string
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OSFS) Remove(name string) error                   { return os.Remove(name) }
func (OSFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OSFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (OSFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

// SyncDir fsyncs a directory so a rename, create or delete inside it
// survives power loss — fsyncing the file alone makes the *bytes*
// durable but not the directory entry pointing at them. Filesystems
// that cannot sync a directory handle (reported as EINVAL/ENOTSUP)
// are tolerated: there is nothing stronger available there.
func SyncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, fs.ErrInvalid) {
			return nil
		}
		return err
	}
	return nil
}
