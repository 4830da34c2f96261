// Package faultfs abstracts the handful of filesystem operations the
// write-ahead log needs (append, fsync, rename, directory listing) behind an
// interface with two implementations: OS, a thin veneer over package os used
// in production, and Mem, an in-memory filesystem that journals every
// mutation so tests can reconstruct the exact on-disk state a crash at any
// byte offset would leave behind — torn writes included — and inject the
// failures (short writes, fsync errors) that durability code exists to
// survive.
package faultfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the per-file surface the WAL uses: sequential reads (recovery),
// appending writes (the log), fsync, close. Seeking is deliberately absent —
// the log is append-only and replayed front to back.
type File interface {
	io.Reader
	io.Writer
	// Sync flushes the file's written data to stable storage.
	Sync() error
	Close() error
}

// FS is the directory-level surface: everything the WAL's rotation,
// checkpointing, and recovery paths touch.
type FS interface {
	MkdirAll(dir string) error
	// OpenFile opens with os-style flags (os.O_RDONLY, os.O_WRONLY,
	// os.O_CREATE, os.O_TRUNC, os.O_APPEND are honored).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// ReadDir lists the names of a directory's immediate children, sorted.
	ReadDir(dir string) ([]string, error)
	// Truncate cuts a file to size bytes (recovery chops torn tails).
	Truncate(name string, size int64) error
	// SyncDir makes directory-entry mutations (create, rename, remove)
	// durable — the fsync-the-directory step of an atomic rename.
	SyncDir(dir string) error
	// Stat reports whether a file exists and its size.
	Stat(name string) (size int64, err error)
}

// OS is the production FS: package os with fsync-the-directory support.
type OS struct{}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (OS) Stat(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// WriteFileAtomic installs dir/name with the bytes write produces, so that a
// crash at any point leaves either no file or the whole new one under that
// name: write to name.tmp, fsync, close, rename over name, fsync dir. On a
// failed write, fsync or close the tmp file is removed and name is untouched.
func WriteFileAtomic(fsys FS, dir, name string, write func(io.Writer) error) error {
	path := filepath.Join(dir, name)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
