// The FS seam: every byte the store reads or writes flows through this
// interface, mirroring the Clock seam in internal/clock. Production
// stores run on OS (the real filesystem); crash-recovery drills run on
// FaultFS (faultfs.go), which injects short writes, fsync failures,
// flipped bytes, and mid-write process death from a seeded, fully
// deterministic schedule. The store never touches the os package
// directly, so every durability claim it makes is testable against an
// adversarial disk.
package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the slice of *os.File the store needs: sequential reads,
// appends, fsync, close.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's written bytes to stable storage. Until
	// Sync returns nil, a crash may lose or tear anything written since
	// the previous successful Sync.
	Sync() error
}

// FS is the store's filesystem seam. Path arguments are ordinary paths;
// implementations must not interpret them beyond passing them through
// (FaultFS wraps OS and must compose transparently).
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create truncates-or-creates name for writing.
	Create(name string) (File, error)
	// OpenAppend opens name for appending, creating it if absent.
	OpenAppend(name string) (File, error)
	// OpenRead opens name for reading.
	OpenRead(name string) (File, error)
	// Rename atomically moves oldname to newname (same directory).
	Rename(oldname, newname string) error
	// Remove deletes name.
	Remove(name string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// Size returns the byte size of name.
	Size(name string) (int64, error)
	// ReadDir lists the file names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making renames and newly
	// created files in it durable. (A file fsync alone does not persist
	// the directory entry pointing at the file.)
	SyncDir(dir string) error
}

// OS is the production FS: a thin pass-through to the os package.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS.
func (OS) Create(name string) (File, error) { return os.Create(name) }

// OpenAppend implements FS.
func (OS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// OpenRead implements FS.
func (OS) OpenRead(name string) (File, error) { return os.Open(name) }

// Rename implements FS.
func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// Truncate implements FS.
func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// Size implements FS.
func (OS) Size(name string) (int64, error) {
	fi, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// ReadDir implements FS.
func (OS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("store: sync dir %s: %w", filepath.Base(dir), err)
	}
	return d.Close()
}
