package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fm"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/tech"
)

// nosyncFS is OS with fsync disabled: for tests that exercise scan and
// index logic, not durability, so every-byte torture loops stay fast.
type nosyncFS struct{ OS }

func (nosyncFS) SyncDir(string) error { return nil }

func (n nosyncFS) Create(name string) (File, error) {
	f, err := n.OS.Create(name)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

func (n nosyncFS) OpenAppend(name string) (File, error) {
	f, err := n.OS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return nosyncFile{f}, nil
}

type nosyncFile struct{ File }

func (nosyncFile) Sync() error { return nil }

// testGraph builds a small deterministic random DAG.
func testGraph(seed int64, ops int) *fm.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := fm.NewBuilder("store-test")
	ids := []fm.NodeID{b.Input(32), b.Input(32)}
	for i := 0; i < ops; i++ {
		d1 := ids[rng.Intn(len(ids))]
		d2 := ids[rng.Intn(len(ids))]
		ids = append(ids, b.Op(tech.OpAdd, 32, d1, d2))
	}
	b.MarkOutput(ids[len(ids)-1])
	return b.Build()
}

// priced is one (graph, target, schedule, cost) quadruple ready to Put.
type priced struct {
	g     *fm.Graph
	gfp   uint64
	tgt   fm.Target
	sched fm.Schedule
	cost  fm.Cost
}

// testEntries prices n distinct mappings across a few graphs and two
// targets, deterministically from seed.
func testEntries(t *testing.T, seed int64, n int) []priced {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	t1 := fm.DefaultTarget(4, 4)
	t2 := fm.DefaultTarget(4, 4)
	t2.Grid.PitchMM = 9 // distinct target fingerprint
	targets := []fm.Target{t1, t2}
	var out []priced
	for i := 0; len(out) < n; i++ {
		g := testGraph(seed+int64(i%3), 6+i%5)
		gfp := g.Fingerprint()
		tgt := targets[i%len(targets)]
		var sched fm.Schedule
		if i%2 == 0 {
			sched = fm.ListSchedule(g, tgt)
		} else {
			sched = fm.SerialSchedule(g, tgt, geom.Pt(rng.Intn(4), rng.Intn(4)))
		}
		cost, err := fm.Evaluate(g, sched, tgt, fm.EvalOptions{})
		if err != nil {
			t.Fatalf("evaluate: %v", err)
		}
		out = append(out, priced{g: g, gfp: gfp, tgt: tgt, sched: sched, cost: cost})
	}
	return out
}

// putAll appends every entry, asserting each lands.
func putAll(t *testing.T, s *Store, ents []priced) {
	t.Helper()
	for i, e := range ents {
		added, err := s.Put(e.gfp, e.tgt, e.sched, e.cost)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if !added {
			t.Fatalf("put %d: deduped, want appended", i)
		}
	}
}

// dump renders the store's log dump as a string.
func dump(t *testing.T, s *Store) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.DumpLog(&buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	return buf.String()
}

// checkAll asserts every priced entry is served back exactly.
func checkAll(t *testing.T, s *Store, ents []priced) {
	t.Helper()
	for i, e := range ents {
		cost, ok := s.Lookup(e.gfp, e.sched.Fingerprint(), e.tgt)
		if !ok {
			t.Fatalf("entry %d: lookup missed", i)
		}
		if cost != e.cost {
			t.Fatalf("entry %d: lookup cost %v, want %v", i, cost, e.cost)
		}
	}
}

func TestPutLookup(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(OS{}, dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	ents := testEntries(t, 1, 12)
	putAll(t, s, ents)
	checkAll(t, s, ents)
	if s.Len() != len(ents) {
		t.Fatalf("len %d, want %d", s.Len(), len(ents))
	}

	// Re-putting any entry is a dedup, not an append.
	added, err := s.Put(ents[3].gfp, ents[3].tgt, ents[3].sched, ents[3].cost)
	if err != nil || added {
		t.Fatalf("re-put: added=%v err=%v, want false/nil", added, err)
	}
	if s.Len() != len(ents) {
		t.Fatalf("len %d after dedup, want %d", s.Len(), len(ents))
	}

	// A lookup with the wrong schedule or wrong target misses.
	if _, ok := s.Lookup(ents[0].gfp, 0xdead, ents[0].tgt); ok {
		t.Fatal("lookup with bogus schedule fingerprint hit")
	}
	other := ents[0].tgt
	other.Grid.PitchMM += 1
	if _, ok := s.Lookup(ents[0].gfp, ents[0].sched.Fingerprint(), other); ok {
		t.Fatal("lookup with different target hit")
	}
}

func TestReopenRecoversEverything(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(OS{}, dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ents := testEntries(t, 2, 10)
	putAll(t, s, ents)
	before := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, err := Open(OS{}, dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rep := s2.Report()
	if !rep.Healthy() {
		t.Fatalf("reopen unhealthy: %+v", rep)
	}
	if rep.Records != len(ents) {
		t.Fatalf("recovered %d records, want %d", rep.Records, len(ents))
	}
	if rep.TruncatedBytes != 0 {
		t.Fatalf("truncated %d bytes from a clean log", rep.TruncatedBytes)
	}
	checkAll(t, s2, ents)
	if after := dump(t, s2); after != before {
		t.Fatalf("dump changed across reopen:\nbefore:\n%s\nafter:\n%s", before, after)
	}

	// The recovered store keeps accepting appends.
	extra := testEntries(t, 99, 14)[13]
	if added, err := s2.Put(extra.gfp, extra.tgt, extra.sched, extra.cost); err != nil || !added {
		t.Fatalf("put after recovery: added=%v err=%v", added, err)
	}
}

func TestRotationAndManifest(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of records.
	s, err := Open(OS{}, dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ents := testEntries(t, 3, 16)
	putAll(t, s, ents)
	before := dump(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	names, err := (OS{}).ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	segs := 0
	sawManifest := false
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			segs++
		}
		if name == manifestName {
			sawManifest = true
		}
	}
	if segs < 2 {
		t.Fatalf("only %d segments on disk; rotation never happened", segs)
	}
	if !sawManifest {
		t.Fatal("no manifest on disk")
	}

	s2, err := Open(OS{}, dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if rep := s2.Report(); !rep.Healthy() || rep.Records != len(ents) {
		t.Fatalf("recovery report %+v, want healthy with %d records", rep, len(ents))
	}
	checkAll(t, s2, ents)
	if after := dump(t, s2); after != before {
		t.Fatal("multi-segment dump changed across reopen")
	}
}

func TestManifestFallbackToDirScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(OS{}, dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ents := testEntries(t, 4, 12)
	putAll(t, s, ents)
	before := dump(t, s)
	s.Close()

	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("remove manifest: %v", err)
	}
	s2, err := Open(OS{}, dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("reopen without manifest: %v", err)
	}
	defer s2.Close()
	rep := s2.Report()
	if !rep.ManifestFallback {
		t.Fatal("fallback not reported")
	}
	if !rep.Healthy() || rep.Records != len(ents) {
		t.Fatalf("fallback recovery %+v, want healthy with %d records", rep, len(ents))
	}
	if after := dump(t, s2); after != before {
		t.Fatal("fallback dump differs")
	}
}

func TestMissingSegmentReportedUnhealthy(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(OS{}, dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ents := testEntries(t, 5, 16)
	putAll(t, s, ents)
	s.Close()

	// Delete the first segment out from under the manifest.
	if err := os.Remove(filepath.Join(dir, segName(0))); err != nil {
		t.Fatalf("remove segment: %v", err)
	}
	s2, err := Open(OS{}, dir, Options{SegmentBytes: 4096})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	rep := s2.Report()
	if rep.Healthy() {
		t.Fatal("store with a missing segment reported healthy")
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != segName(0) {
		t.Fatalf("missing = %v, want [%s]", rep.Missing, segName(0))
	}
	if rep.Records == 0 || rep.Records >= len(ents) {
		t.Fatalf("recovered %d records, want a strict non-empty subset of %d", rep.Records, len(ents))
	}
}

// TestPutErrorsAfterClose: a closed store's append path is broken, and
// Put says so for a new entry and a duplicate alike: the broken check
// comes before the dedup probe.
func TestPutErrorsAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(OS{}, dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	ents := testEntries(t, 6, 2)
	putAll(t, s, ents[:1])
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, e := range ents {
		if _, err := s.Put(e.gfp, e.tgt, e.sched, e.cost); !errors.Is(err, ErrBroken) {
			t.Fatalf("put %d (duplicate, then new) after close: %v, want ErrBroken", i, err)
		}
	}
}

// countingFS counts every call the store makes through the FS seam,
// calls on the files it opens included.
type countingFS struct {
	inner FS
	ops   int
}

func (c *countingFS) file(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{c: c, inner: f}, nil
}

func (c *countingFS) MkdirAll(dir string) error        { c.ops++; return c.inner.MkdirAll(dir) }
func (c *countingFS) Create(name string) (File, error) { c.ops++; return c.file(c.inner.Create(name)) }
func (c *countingFS) OpenAppend(name string) (File, error) {
	c.ops++
	return c.file(c.inner.OpenAppend(name))
}
func (c *countingFS) OpenRead(name string) (File, error) {
	c.ops++
	return c.file(c.inner.OpenRead(name))
}
func (c *countingFS) Rename(from, to string) error         { c.ops++; return c.inner.Rename(from, to) }
func (c *countingFS) Remove(name string) error             { c.ops++; return c.inner.Remove(name) }
func (c *countingFS) Truncate(name string, n int64) error  { c.ops++; return c.inner.Truncate(name, n) }
func (c *countingFS) Size(name string) (int64, error)      { c.ops++; return c.inner.Size(name) }
func (c *countingFS) ReadDir(dir string) ([]string, error) { c.ops++; return c.inner.ReadDir(dir) }
func (c *countingFS) SyncDir(dir string) error             { c.ops++; return c.inner.SyncDir(dir) }

type countingFile struct {
	c     *countingFS
	inner File
}

func (f *countingFile) Read(p []byte) (int, error)  { f.c.ops++; return f.inner.Read(p) }
func (f *countingFile) Write(p []byte) (int, error) { f.c.ops++; return f.inner.Write(p) }
func (f *countingFile) Sync() error                 { f.c.ops++; return f.inner.Sync() }
func (f *countingFile) Close() error                { f.c.ops++; return f.inner.Close() }

// TestDuplicatePutTouchesNoFS: a duplicate Put answers (false, nil) and
// counts a dedup skip from the index alone, without one call on the FS
// and without encoding the record, so its cost does not grow with the
// schedule.
func TestDuplicatePutTouchesNoFS(t *testing.T) {
	fsys := &countingFS{inner: OS{}}
	reg := obs.New()
	s, err := Open(fsys, t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	ents := testEntries(t, 4, 8)
	putAll(t, s, ents)
	before := fsys.ops
	for i, e := range ents {
		added, err := s.Put(e.gfp, e.tgt, e.sched, e.cost)
		if err != nil || added {
			t.Fatalf("re-put %d: added=%v err=%v, want false/nil", i, added, err)
		}
	}
	if n := fsys.ops - before; n != 0 {
		t.Fatalf("%d duplicate puts made %d FS calls, want 0", len(ents), n)
	}
	if got := reg.Counter("store.dedup_skips").Value(); got != int64(len(ents)) {
		t.Fatalf("dedup_skips = %d, want %d", got, len(ents))
	}
	checkAll(t, s, ents)

	g := testGraph(9, 400)
	tgt := fm.DefaultTarget(4, 4)
	sched := fm.SerialSchedule(g, tgt, geom.Pt(0, 0))
	cost, err := fm.Evaluate(g, sched, tgt, fm.EvalOptions{})
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	big := priced{g: g, gfp: g.Fingerprint(), tgt: tgt, sched: sched, cost: cost}
	putAll(t, s, []priced{big})
	// Bytes, not allocation counts: encoding a record takes the same
	// number of allocations at any size, but not the same bytes.
	dupBytes := func(e priced) uint64 {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := s.Put(e.gfp, e.tgt, e.sched, e.cost); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if small, large := dupBytes(ents[0]), dupBytes(big); large > small+512 {
		t.Fatalf("a duplicate put allocates %d bytes for a %d-node schedule, %d for %d nodes",
			small, len(ents[0].sched), large, len(big.sched))
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, seq := range []int{0, 1, 7, 123456} {
		name := segName(seq)
		got, ok := parseSegName(name)
		if !ok || got != seq {
			t.Fatalf("parse(%q) = %d,%v want %d,true", name, got, ok, seq)
		}
	}
	for _, bad := range []string{
		"atlas-0000000.log", "atlas-000000001.log", "atlas-0000000x.log",
		"MANIFEST.json", "atlas-00000001.log.quarantined", "atlas-00000001",
	} {
		if _, ok := parseSegName(bad); ok {
			t.Fatalf("parse(%q) accepted", bad)
		}
	}
}

func TestDumpLogShape(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(OS{}, dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	ents := testEntries(t, 7, 3)
	putAll(t, s, ents)
	d := dump(t, s)
	lines := strings.Split(strings.TrimSuffix(d, "\n"), "\n")
	if len(lines) != len(ents) {
		t.Fatalf("dump has %d lines, want %d", len(lines), len(ents))
	}
	for i, line := range lines {
		if !strings.Contains(line, "\"graph\"") || !strings.Contains(line, "\"sched_fp\"") {
			t.Fatalf("dump line %d malformed: %s", i, line)
		}
	}
}
