package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{ShortWriteRate: -0.1},
		{SyncErrRate: 1.5},
		{FlipRate: 2},
	}
	for i, cfg := range bad {
		if _, err := NewFaultFS(OS{}, cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewFaultFS(OS{}, FaultConfig{Seed: 1, ShortWriteRate: 0.5}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestFaultFSDeterministicSchedule drives two same-seed FaultFSes
// through an identical operation sequence and requires identical
// injected outcomes, down to the bytes left on disk.
func TestFaultFSDeterministicSchedule(t *testing.T) {
	drive := func(seed int64) (FaultStats, []byte) {
		t.Helper()
		dir := t.TempDir()
		ffs, err := NewFaultFS(OS{}, FaultConfig{
			Seed:           seed,
			ShortWriteRate: 0.3,
			SyncErrRate:    0.2,
			FlipRate:       0.2,
		})
		if err != nil {
			t.Fatalf("fault fs: %v", err)
		}
		path := filepath.Join(dir, "f")
		f, err := ffs.Create(path)
		if err != nil {
			// Create can fail only by crash injection, which is off.
			t.Fatalf("create: %v", err)
		}
		payload := []byte("the quick brown fox jumps over the lazy dog")
		for i := 0; i < 32; i++ {
			_, _ = f.Write(payload)
			_ = f.Sync()
		}
		f.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		return ffs.Stats(), data
	}

	s1, d1 := drive(5)
	s2, d2 := drive(5)
	if s1 != s2 {
		t.Fatalf("same-seed stats differ: %+v vs %+v", s1, s2)
	}
	if string(d1) != string(d2) {
		t.Fatal("same-seed runs left different bytes on disk")
	}
	if s1.ShortWrites == 0 && s1.SyncErrs == 0 && s1.FlippedByte == 0 {
		t.Fatalf("no faults injected at 30/20/20%% over 64 ops: %+v", s1)
	}
	s3, d3 := drive(6)
	if s3 == s1 && string(d3) == string(d1) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultFSDrawGolden pins the raw draws behind every injected fault.
// The schedule tests above compare same-seed runs with each other, so a
// changed mixer would pass them; these values would not.
func TestFaultFSDrawGolden(t *testing.T) {
	ffs, err := NewFaultFS(OS{}, FaultConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind uint64
		op   int64
		h    uint64
	}{
		{opWrite, 1, 0x6d588423add4b92b},
		{opSync, 1, 0x43c1ab361069d9fd},
		{opWrite, 2, 0x563b581bcb49f5b3},
		{opSync, 2, 0xd0fdeec567d658ce},
		{opWrite, 3, 0xdc546b4bd2ba92f8},
		{opSync, 3, 0x10fb426cf9a2a6f7},
		{opWrite, 4, 0xa273f70b7638e668},
		{opSync, 4, 0xb2d24941d008800d},
	} {
		u, h := ffs.draw(tc.kind, tc.op)
		if h != tc.h || u != float64(tc.h>>11)/float64(1<<53) {
			t.Errorf("draw(%d, %d) = (%v, %#016x), want hash %#016x", tc.kind, tc.op, u, h, tc.h)
		}
	}
}

func TestFaultFSCrashIsTerminal(t *testing.T) {
	dir := t.TempDir()
	fired := 0
	ffs, err := NewFaultFS(OS{}, FaultConfig{
		Seed:      9,
		CrashAtOp: 3,
		OnCrash:   func() { fired++ },
	})
	if err != nil {
		t.Fatalf("fault fs: %v", err)
	}
	f, err := ffs.Create(filepath.Join(dir, "f")) // op 1
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("one")); err != nil { // op 2
		t.Fatalf("write 1: %v", err)
	}
	n, err := f.Write([]byte("twotwotwo")) // op 3: crash
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op returned %v, want ErrCrashed", err)
	}
	if n < 0 || n >= len("twotwotwo") {
		t.Fatalf("crash landed %d bytes of %d; must be a strict prefix", n, len("twotwotwo"))
	}
	if fired != 1 {
		t.Fatalf("OnCrash fired %d times, want 1", fired)
	}

	// Everything after the crash is dead, and the hook never refires.
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	if _, err := ffs.Create(filepath.Join(dir, "g")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("create after crash: %v", err)
	}
	if err := ffs.Rename(filepath.Join(dir, "f"), filepath.Join(dir, "h")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
	if _, err := ffs.OpenRead(filepath.Join(dir, "f")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("open read after crash: %v", err)
	}
	if err := ffs.SyncDir(dir); !errors.Is(err, ErrCrashed) {
		t.Fatalf("sync dir after crash: %v", err)
	}
	if fired != 1 {
		t.Fatalf("OnCrash refired: %d", fired)
	}
	// The torn prefix the crash landed is on disk: "one" + a strict
	// prefix of the crashed write.
	data, err := os.ReadFile(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(data) != len("one")+n {
		t.Fatalf("disk holds %d bytes, want %d", len(data), len("one")+n)
	}
}

func TestFaultFSPassthroughWhenQuiet(t *testing.T) {
	// With all rates zero the FaultFS must be a perfect pass-through:
	// the store behaves identically to running on OS directly.
	dir := t.TempDir()
	ffs, err := NewFaultFS(OS{}, FaultConfig{Seed: 1})
	if err != nil {
		t.Fatalf("fault fs: %v", err)
	}
	s, err := Open(ffs, dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ents := testEntries(t, 31, 6)
	putAll(t, s, ents)
	checkAll(t, s, ents)
	before := dump(t, s)
	s.Close()

	s2, err := Open(OS{}, dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if !s2.Report().Healthy() || dump(t, s2) != before {
		t.Fatal("quiet fault fs distorted the store")
	}
	if st := ffs.Stats(); st != (FaultStats{}) {
		t.Fatalf("quiet fault fs injected faults: %+v", st)
	}
}

func TestFaultFSReadOnlyFilesRejectWrites(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r"), []byte("data"), 0o644); err != nil {
		t.Fatalf("seed file: %v", err)
	}
	ffs, err := NewFaultFS(OS{}, FaultConfig{Seed: 2})
	if err != nil {
		t.Fatalf("fault fs: %v", err)
	}
	f, err := ffs.OpenRead(filepath.Join(dir, "r"))
	if err != nil {
		t.Fatalf("open read: %v", err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write to read-only handle succeeded")
	}
}
