package wal

import (
	"os"
	"sync"
)

// FaultFS wraps an FS with injectable failures, so tests can place a
// short write, an fsync error or an ENOSPC at an exact byte offset and
// assert the recovery behavior deterministically. A nil hook passes the
// call through. Hooks receive the file's path, so a test can target the
// temp file, the segment, or the directory handle specifically.
//
// FaultFS lives in the non-test source set on purpose: it is the shared
// fault harness for this package, internal/checkpoint and
// internal/serve's durability tests.
type FaultFS struct {
	Base FS

	// OnOpenFile, when non-nil and returning a non-nil error, fails the
	// open.
	OnOpenFile func(name string, flag int) error
	// OnWrite, when non-nil, intercepts every write. Returning handled
	// false passes the write through untouched; otherwise (n, err) is
	// returned as the write's result and only the first n bytes reach
	// the underlying file (a short write a crash would leave behind).
	OnWrite func(name string, p []byte) (n int, err error, handled bool)
	// OnSync, when non-nil and returning a non-nil error, fails the
	// fsync after skipping the real one.
	OnSync func(name string) error
	// OnRename, when non-nil and returning a non-nil error, fails the
	// rename before it happens.
	OnRename func(oldpath, newpath string) error
	// OnRemove, when non-nil and returning a non-nil error, fails the
	// remove before it happens.
	OnRemove func(name string) error

	mu    sync.Mutex
	syncs []string
}

// Syncs returns the paths that were successfully fsynced, in order
// (directory handles included). Tests use it to assert a durability
// barrier actually happened.
func (f *FaultFS) Syncs() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.syncs...)
}

func (f *FaultFS) base() FS {
	if f.Base == nil {
		return OSFS{}
	}
	return f.Base
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if f.OnOpenFile != nil {
		if err := f.OnOpenFile(name, flag); err != nil {
			return nil, err
		}
	}
	file, err := f.base().OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.OnRename != nil {
		if err := f.OnRename(oldpath, newpath); err != nil {
			return err
		}
	}
	return f.base().Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if f.OnRemove != nil {
		if err := f.OnRemove(name); err != nil {
			return err
		}
	}
	return f.base().Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.base().ReadDir(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.base().MkdirAll(path, perm)
}
func (f *FaultFS) Stat(name string) (os.FileInfo, error) { return f.base().Stat(name) }

// faultFile routes Write and Sync through the parent's hooks.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.fs.OnWrite != nil {
		if n, err, handled := f.fs.OnWrite(f.Name(), p); handled {
			if n > 0 {
				// The short prefix a crashed write would have landed.
				if wn, werr := f.File.Write(p[:n]); werr != nil {
					return wn, werr
				}
			}
			return n, err
		}
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	if f.fs.OnSync != nil {
		if err := f.fs.OnSync(f.Name()); err != nil {
			return err
		}
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.syncs = append(f.fs.syncs, f.Name())
	f.fs.mu.Unlock()
	return nil
}
