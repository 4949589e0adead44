// FaultFS: a deterministic adversarial disk. It wraps any FS and
// injects the three failure modes the store's crash model promises to
// survive — short (torn) writes, fsync errors, and silently flipped
// bytes — plus a "process death" switch that kills the FS mid-write at
// an exact operation number. Every injection decision is a pure
// function of (Seed, operation kind, operation number), the same
// interleaving-independent discipline as internal/fault: two drills
// with the same seed and the same operation sequence fault at the same
// instants and tear the same bytes, which is what makes crash-recovery
// drills byte-reproducible.
package store

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/splitmix"
)

// ErrCrashed is returned by every FaultFS operation after the injected
// crash point: the process is "dead" as far as the disk is concerned.
var ErrCrashed = errors.New("store: fault fs crashed")

// errInjected marks a non-fatal injected fault (short write or fsync
// failure); the store repairs and keeps serving.
var errInjected = errors.New("injected fault")

// IsInjected reports whether err is a non-fatal injected disk fault.
func IsInjected(err error) bool { return errors.Is(err, errInjected) }

// Operation kinds, mixed into the injection hash so each kind draws an
// independent stream.
const (
	opWrite uint64 = iota + 1
	opSync
	opMutate // create/rename/remove/truncate/dirsync
)

// FaultConfig tunes a FaultFS. Rates are per-operation probabilities in
// [0, 1]; zero disables that fault kind.
type FaultConfig struct {
	// Seed selects the fault schedule.
	Seed int64
	// ShortWriteRate is the probability a Write persists only a
	// prefix of its buffer and then fails.
	ShortWriteRate float64
	// SyncErrRate is the probability a file or directory Sync fails
	// (leaving the unsynced tail in an unknown state, as real disks do).
	SyncErrRate float64
	// FlipRate is the probability one byte of a Write is flipped in
	// flight — the write "succeeds" but the medium lies. Recovery must
	// catch this by checksum, never by the write path.
	FlipRate float64
	// CrashAtOp, when positive, kills the FS at the CrashAtOp-th
	// mutating operation: a Write persists a deterministic prefix first,
	// any other operation does nothing; every operation thereafter
	// returns ErrCrashed. Models kill -9 mid-write.
	CrashAtOp int64
	// OnCrash, when non-nil, runs at the crash instant (after the torn
	// prefix lands). Drill binaries use it to SIGKILL themselves so the
	// "crash" is a real process death, not a simulated one.
	OnCrash func()
}

// Validate reports an error for rates outside [0, 1].
func (c FaultConfig) Validate() error {
	for _, r := range []float64{c.ShortWriteRate, c.SyncErrRate, c.FlipRate} {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("store: fault rate %g outside [0, 1]", r)
		}
	}
	return nil
}

// FaultStats counts injected faults by kind.
type FaultStats struct {
	ShortWrites int64 `json:"short_writes"`
	SyncErrs    int64 `json:"sync_errs"`
	FlippedByte int64 `json:"flipped_bytes"`
	Crashed     bool  `json:"crashed"`
}

// FaultFS wraps an inner FS with deterministic fault injection. Safe
// for concurrent use; determinism holds whenever the operation order is
// deterministic (the store serializes all writes under its own mutex).
type FaultFS struct {
	inner FS
	cfg   FaultConfig
	seed  uint64

	mu      sync.Mutex
	op      int64 // mutating-operation counter
	crashed bool
	stats   FaultStats
}

// NewFaultFS wraps inner with the configured fault schedule.
func NewFaultFS(inner FS, cfg FaultConfig) (*FaultFS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultFS{
		inner: inner,
		cfg:   cfg,
		seed:  splitmix.Mix64(uint64(cfg.Seed) ^ 0x57a7e_fa017_f5),
	}, nil
}

// Stats returns the injected-fault counts so far.
func (f *FaultFS) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// draw returns a uniform float64 in [0, 1) and a raw hash for the
// given (kind, op) coordinate — the injector's entire randomness.
func (f *FaultFS) draw(kind uint64, op int64) (float64, uint64) {
	h := splitmix.Mix64(f.seed ^ splitmix.Mix64(kind*0x9e3779b97f4a7c15+uint64(op)))
	return float64(h>>11) / float64(1<<53), h
}

// step advances the mutating-op counter and reports whether this
// operation is the crash point or is after it. Callers hold f.mu.
func (f *FaultFS) step() (op int64, crashNow bool, dead bool) {
	if f.crashed {
		return f.op, false, true
	}
	f.op++
	if f.cfg.CrashAtOp > 0 && f.op == f.cfg.CrashAtOp {
		return f.op, true, false
	}
	return f.op, false, false
}

// die marks the FS dead and fires the crash hook.
func (f *FaultFS) die() {
	f.crashed = true
	f.stats.Crashed = true
	if f.cfg.OnCrash != nil {
		f.cfg.OnCrash()
	}
}

// mutate wraps a non-write mutating operation with crash accounting.
func (f *FaultFS) mutate(run func() error) error {
	f.mu.Lock()
	_, crashNow, dead := f.step()
	if dead {
		f.mu.Unlock()
		return ErrCrashed
	}
	if crashNow {
		f.die()
		f.mu.Unlock()
		return ErrCrashed
	}
	f.mu.Unlock()
	return run()
}

// MkdirAll implements FS. Directory creation happens once at open and
// is not part of the fault surface.
func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	var inner File
	err := f.mutate(func() (err error) {
		inner, err = f.inner.Create(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// OpenAppend implements FS.
func (f *FaultFS) OpenAppend(name string) (File, error) {
	var inner File
	err := f.mutate(func() (err error) {
		inner, err = f.inner.OpenAppend(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// OpenRead implements FS. Reads after the crash fail like everything
// else — the process is dead; recovery happens in a fresh FS.
func (f *FaultFS) OpenRead(name string) (File, error) {
	f.mu.Lock()
	dead := f.crashed
	f.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	inner, err := f.inner.OpenRead(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner, readonly: true}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldname, newname string) error {
	return f.mutate(func() error { return f.inner.Rename(oldname, newname) })
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	return f.mutate(func() error { return f.inner.Remove(name) })
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	return f.mutate(func() error { return f.inner.Truncate(name, size) })
}

// Size implements FS.
func (f *FaultFS) Size(name string) (int64, error) { return f.inner.Size(name) }

// ReadDir implements FS.
func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// SyncDir implements FS: subject to crash and sync-error injection.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	op, crashNow, dead := f.step()
	if dead {
		f.mu.Unlock()
		return ErrCrashed
	}
	if crashNow {
		f.die()
		f.mu.Unlock()
		return ErrCrashed
	}
	if p, _ := f.draw(opSync, op); p < f.cfg.SyncErrRate {
		f.stats.SyncErrs++
		f.mu.Unlock()
		return fmt.Errorf("store: dir sync: %w", errInjected)
	}
	f.mu.Unlock()
	return f.inner.SyncDir(dir)
}

// faultFile routes Write and Sync through the schedule.
type faultFile struct {
	fs       *FaultFS
	inner    File
	readonly bool
}

func (ff *faultFile) Read(p []byte) (int, error) {
	ff.fs.mu.Lock()
	dead := ff.fs.crashed
	ff.fs.mu.Unlock()
	if dead {
		return 0, ErrCrashed
	}
	return ff.inner.Read(p)
}

// Write persists p, subject to injection: a short write lands a
// hash-chosen prefix and fails; a byte flip corrupts one hash-chosen
// byte silently; the crash point lands a prefix and kills the FS.
func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.readonly {
		return 0, fmt.Errorf("store: write to read-only file")
	}
	f := ff.fs
	f.mu.Lock()
	op, crashNow, dead := f.step()
	if dead {
		f.mu.Unlock()
		return 0, ErrCrashed
	}
	if crashNow {
		// Land a deterministic prefix, then die.
		_, h := f.draw(opWrite, op)
		n := 0
		if len(p) > 0 {
			n = int(h % uint64(len(p)))
			_, _ = ff.inner.Write(p[:n])
			_ = ff.inner.Sync() // make the torn prefix the durable truth
		}
		f.die()
		f.mu.Unlock()
		return n, ErrCrashed
	}
	pShort, hShort := f.draw(opWrite, op)
	if pShort < f.cfg.ShortWriteRate && len(p) > 0 {
		n := int(hShort % uint64(len(p)))
		f.stats.ShortWrites++
		f.mu.Unlock()
		if n > 0 {
			if wn, err := ff.inner.Write(p[:n]); err != nil {
				return wn, err
			}
		}
		return n, fmt.Errorf("store: short write %d/%d: %w", n, len(p), errInjected)
	}
	pFlip, hFlip := f.draw(opWrite, ^op)
	if pFlip < f.cfg.FlipRate && len(p) > 0 {
		q := make([]byte, len(p))
		copy(q, p)
		i := int(hFlip % uint64(len(q)))
		q[i] ^= byte(1 + (hFlip>>17)%255) // never a no-op flip
		f.stats.FlippedByte++
		f.mu.Unlock()
		return ff.inner.Write(q)
	}
	f.mu.Unlock()
	return ff.inner.Write(p)
}

// Sync fsyncs, subject to sync-error and crash injection.
func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	op, crashNow, dead := f.step()
	if dead {
		f.mu.Unlock()
		return ErrCrashed
	}
	if crashNow {
		f.die()
		f.mu.Unlock()
		return ErrCrashed
	}
	if p, _ := f.draw(opSync, op); p < f.cfg.SyncErrRate {
		f.stats.SyncErrs++
		f.mu.Unlock()
		return fmt.Errorf("store: sync: %w", errInjected)
	}
	f.mu.Unlock()
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
