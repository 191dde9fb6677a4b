// Package faultfs abstracts the filesystem operations behind randpriv's
// durable planes — the jobs state dir, the cluster CAS/lease store and
// the server's upload spool — so that storage faults become injectable,
// deterministic and replayable instead of hypothetical.
//
// Two implementations exist:
//
//   - OS: a zero-cost passthrough to the os package. Production code
//     pays one interface dispatch per call and nothing else.
//   - Injector: wraps any FS with a schedule of deterministic faults
//     (ENOSPC at write N, EIO on read K, torn writes that persist a
//     prefix, crash points that halt the filesystem mid-protocol). The
//     chaos suites replay seeded schedules through it and assert the
//     durable planes either converge to golden bytes or fail with a
//     clean typed error and a restart-recoverable state dir.
//
// The interface is deliberately narrow: exactly the calls the durable
// planes make, nothing speculative. SyncDir exists because a rename is
// only crash-durable once the parent directory's entry is on disk —
// the commit points fsync the temp file and then the directory.
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the subset of *os.File the durable planes use.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Name returns the path the file was opened or created with.
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
}

// FS is the filesystem surface of the durable planes. Every method has
// the semantics of its os package namesake.
type FS interface {
	Open(name string) (File, error)
	Create(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs the directory itself, making previously renamed
	// entries crash-durable. Filesystems that cannot sync a directory
	// (some network and FUSE mounts return EINVAL/ENOTSUP) are treated
	// as success — there is nothing more the caller could do.
	SyncDir(dir string) error
}

// OS is the passthrough FS used in production.
type OS struct{}

func (OS) Open(name string) (File, error)   { return os.Open(name) }
func (OS) Create(name string) (File, error) { return os.Create(name) }
func (OS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (OS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (OS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                     { return os.Remove(name) }
func (OS) RemoveAll(path string) error                  { return os.RemoveAll(path) }
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (OS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && (errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) || errors.Is(err, syscall.EBADF)) {
		return nil
	}
	return err
}

// Default returns fs, or the OS passthrough when fs is nil — the
// convention every durable plane uses to make faultfs opt-in.
func Default(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}

// WriteAtomic makes one attempt at the crash-durable commit protocol:
// create a temp file in tmpDir named after pattern, fill it through
// write, fsync and close it, rename it onto path, then fsync path's
// directory — so a committed write survives power loss, not just
// process death. A failed attempt removes its temp file before
// returning the error; what a crash strands, the caller's startup sweep
// reclaims. Retrying (with a fresh temp file, so write must be
// replayable) is the caller's policy.
func WriteAtomic(fsys FS, tmpDir, pattern, path string, write func(io.Writer) error) error {
	tmp, err := fsys.CreateTemp(tmpDir, pattern)
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	if err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}
