// Package store is the mapping atlas: a crash-safe, disk-backed record
// of every mapping the system has priced. The panel paper's tension —
// architecture-friendly algorithms versus algorithm-friendly
// architectures — is priced one mapping at a time: for each target
// machine, what each mapping of each function costs there. Everything
// else the repo learns dies with the process; the atlas is the part
// that must not, so its design is durability-first:
//
//   - An append-only log of CRC32-C-framed, length-prefixed records in
//     rotated segment files, fsync'd on every append. A record is either
//     durably committed in full or discarded in full; there is no
//     in-place mutation to tear.
//   - An atomic tmp+rename+dirsync manifest naming the live segments
//     (the same idiom as internal/fm/search's checkpoint files). The
//     recovery scan unions the manifest with the directory listing, so
//     a crash between segment creation and manifest commit loses
//     nothing.
//   - Recovery truncates at the first torn or corrupt record of the
//     final segment (the normal kill -9 tail) and quarantines any other
//     damaged segment — renamed aside for forensics, its records
//     withheld from the index — instead of failing open. A recovered
//     store never serves bytes that failed their checksum.
//   - All I/O flows through the FS seam (fs.go), so the fault drills in
//     this package's tests and cmd/storedrill can prove every claim
//     above against deterministically injected short writes, fsync
//     errors, flipped bytes, and mid-write process death.
//
// The in-memory index rebuilt by recovery answers one question: the
// exact cost of an already-priced (graph, schedule, target). It is a
// price memo under the serving layer's EvalCache — the warm-restart
// path for evals — and nothing else: a price is a pure function of
// (graph, schedule, target), so serving it from disk cannot change an
// answer, only how fast it comes.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fm"
	"repro/internal/obs"
)

// manifestName is the manifest file; manifestVersion guards its format.
const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
	segPrefix       = "atlas-"
	segSuffix       = ".log"
	quarantineExt   = ".quarantined"
)

// ErrBroken is wrapped by Put once the store has lost its ability to
// append durably (e.g. repair after an injected fault also failed).
// Reads keep working; the serving layer degrades honestly instead of
// pretending writes land.
var ErrBroken = errors.New("store: append path broken")

// Entry is one priced mapping: the unit of both the on-disk log and the
// in-memory index. Fingerprints are stored alongside the objects they
// hash and re-verified on recovery, so a record that decodes but lies
// about its identity is treated as corrupt.
type Entry struct {
	// Graph is fm.(*Graph).Fingerprint() of the priced graph.
	Graph uint64 `json:"graph"`
	// TargetFP is targetFP(Target), the target's structural hash.
	TargetFP uint64 `json:"target_fp"`
	// Target is the full machine description, kept verbatim so a
	// restarted process can rebuild exact index keys.
	Target fm.Target `json:"target"`
	// SchedFP is Sched.Fingerprint().
	SchedFP uint64 `json:"sched_fp"`
	// Sched is the mapping itself. Only validate reads it back, to
	// re-derive SchedFP on recovery.
	Sched fm.Schedule `json:"sched"`
	// Cost is the deterministic evaluator's price for the mapping.
	Cost fm.Cost `json:"cost"`
}

// validate re-derives every fingerprint a record claims. Recovery
// rejects records that fail it exactly as it rejects checksum failures.
func (e *Entry) validate() error {
	if len(e.Sched) == 0 {
		return fmt.Errorf("empty schedule")
	}
	if got := e.Sched.Fingerprint(); got != e.SchedFP {
		return fmt.Errorf("schedule fingerprint %016x, record says %016x", got, e.SchedFP)
	}
	if got := targetFP(e.Target); got != e.TargetFP {
		return fmt.Errorf("target fingerprint %016x, record says %016x", got, e.TargetFP)
	}
	return nil
}

// targetFP hashes a target by its canonical JSON encoding. Floats
// round-trip exactly through encoding/json (shortest-representation
// encoding), so a target decoded from a record hashes identically to
// the in-memory value it came from.
func targetFP(t fm.Target) uint64 {
	data, err := json.Marshal(t)
	if err != nil {
		// Target is a plain struct of numbers and strings; Marshal
		// cannot fail on it. Guarded anyway: a zero fingerprint never
		// matches a real record's.
		return 0
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Options tunes a Store. The zero value selects the defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Default 4 MiB.
	SegmentBytes int64
	// Obs receives store metrics under "store.*". Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// RecoveryReport describes what Open found and what it did about it.
type RecoveryReport struct {
	// Segments is the number of live segments scanned.
	Segments int `json:"segments"`
	// Records is the number of intact records applied to the index.
	Records int `json:"records"`
	// TruncatedBytes counts torn-tail bytes cut from the final segment.
	TruncatedBytes int64 `json:"truncated_bytes"`
	// Quarantined lists damaged segments renamed aside; their records
	// are withheld from the index.
	Quarantined []string `json:"quarantined,omitempty"`
	// Missing lists segments the manifest names but the directory
	// lacks.
	Missing []string `json:"missing,omitempty"`
	// ManifestFallback is set when the manifest was absent or corrupt
	// and recovery fell back to the directory listing.
	ManifestFallback bool `json:"manifest_fallback,omitempty"`
}

// Healthy reports whether recovery found the store fully intact: a
// truncated torn tail is the normal crash case and stays healthy;
// quarantined or missing segments do not.
func (r RecoveryReport) Healthy() bool {
	return len(r.Quarantined) == 0 && len(r.Missing) == 0
}

// manifest is the on-disk manifest payload.
type manifest struct {
	Version  int      `json:"version"`
	Segments []string `json:"segments"`
	NextSeq  int      `json:"next_seq"`
}

type evalIdxKey struct {
	graph, sched, target uint64
}

// dumpRow is one line of DumpLog: the identity and cost of one applied
// record, in append order. Schedules are elided (their fingerprint
// identifies them); the dump exists so two recoveries can be diffed
// byte for byte.
type dumpRow struct {
	Graph    string  `json:"graph"`
	TargetFP string  `json:"target_fp"`
	SchedFP  string  `json:"sched_fp"`
	Cost     fm.Cost `json:"cost"`
}

// Store is the crash-safe mapping atlas. All methods are safe for
// concurrent use; appends are serialized internally.
type Store struct {
	fs   FS
	dir  string
	opts Options

	mu         sync.Mutex
	active     File     // guarded by mu
	activeName string   // guarded by mu
	activeSize int64    // guarded by mu — bytes of the active segment known durable/good
	nextSeq    int      // guarded by mu
	segments   []string // guarded by mu — live segment names, oldest first (incl. active)
	broken     error    // guarded by mu — non-nil once the append path is unrepairable

	evals map[evalIdxKey]fm.Cost // guarded by mu
	rows  []dumpRow              // guarded by mu

	report RecoveryReport // guarded by mu

	mAppends, mAppendErrs, mDedup, mRotations, mManifestErrs *obs.Counter
	mRecovered, mQuarantined                                 *obs.Counter
	gRecords, gSegments, gUnhealthy                          *obs.Gauge
}

// Open recovers (or initializes) the store in dir on fsys. It scans
// every live segment, rebuilds the index from intact records, truncates
// the final segment's torn tail, quarantines damaged segments, rewrites
// the manifest to match what it kept, and leaves the store ready to
// append. The recovery outcome is available via Report.
func Open(fsys FS, dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	s := &Store{
		fs:    fsys,
		dir:   dir,
		opts:  opts,
		evals: make(map[evalIdxKey]fm.Cost),
	}
	s.instrument(opts.Obs)
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.publishGaugesLocked()
	s.mRecovered.Add(int64(s.report.Records))
	s.mQuarantined.Add(int64(len(s.report.Quarantined)))
	return s, nil
}

func (s *Store) instrument(r *obs.Registry) {
	s.mAppends = r.Counter("store.appends")
	s.mAppendErrs = r.Counter("store.append_errors")
	s.mDedup = r.Counter("store.dedup_skips")
	s.mRotations = r.Counter("store.rotations")
	s.mManifestErrs = r.Counter("store.manifest_errors")
	s.mRecovered = r.Counter("store.recovered_records")
	s.mQuarantined = r.Counter("store.quarantined_segments")
	s.gRecords = r.Gauge("store.records")
	s.gSegments = r.Gauge("store.segments")
	s.gUnhealthy = r.Gauge("store.unhealthy")
}

// publishGaugesLocked refreshes the occupancy and health gauges. Callers hold
// s.mu (or are single-threaded during Open).
func (s *Store) publishGaugesLocked() {
	s.gRecords.Set(float64(len(s.evals)))
	s.gSegments.Set(float64(len(s.segments)))
	if s.report.Healthy() {
		s.gUnhealthy.Set(0)
	} else {
		s.gUnhealthy.Set(1)
	}
}

// segName renders the segment file name for seq.
func segName(seq int) string {
	return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix)
}

// parseSegName inverts segName; ok is false for non-segment files.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := name[len(segPrefix) : len(name)-len(segSuffix)]
	if len(mid) != 8 {
		return 0, false
	}
	seq, err := strconv.Atoi(mid)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}

// readAll slurps one file through the seam.
func (s *Store) readAll(name string) ([]byte, error) {
	f, err := s.fs.OpenRead(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}

// loadManifest reads and validates the manifest; any failure returns
// nil, and recovery falls back to the directory listing.
func (s *Store) loadManifest() *manifest {
	data, err := s.readAll(manifestName)
	if err != nil {
		return nil
	}
	var m manifest
	if json.Unmarshal(data, &m) != nil || m.Version != manifestVersion {
		return nil
	}
	return &m
}

// writeManifestLocked commits the live segment list atomically: tmp file,
// fsync, rename, directory fsync.
func (s *Store) writeManifestLocked() error {
	m := manifest{Version: manifestVersion, Segments: s.segments, NextSeq: s.nextSeq}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal manifest: %w", err)
	}
	tmp := filepath.Join(s.dir, manifestName+".tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: manifest temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close manifest: %w", err)
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: commit manifest: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return fmt.Errorf("store: sync dir after manifest: %w", err)
	}
	return nil
}

// recover scans the log and rebuilds the index. See the package comment
// for the contract it enforces.
//
//lint:allow lock(single-threaded during Open: the store has not escaped to any other goroutine yet)
func (s *Store) recover() error {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: list %s: %w", s.dir, err)
	}
	onDisk := make(map[string]bool)
	maxSeq := -1
	var diskSegs []string
	for _, name := range names {
		if seq, ok := parseSegName(name); ok {
			onDisk[name] = true
			diskSegs = append(diskSegs, name)
			if seq > maxSeq {
				maxSeq = seq
			}
		}
	}
	sort.Strings(diskSegs) // zero-padded seq: lexicographic == numeric

	// Scan order: manifest order first, then on-disk segments the
	// manifest does not know (created after its last commit), in
	// sequence order. Segments the manifest names but the disk lacks
	// are reported missing.
	var order []string
	m := s.loadManifest()
	if m == nil {
		s.report.ManifestFallback = len(diskSegs) > 0
		order = diskSegs
	} else {
		inManifest := make(map[string]bool, len(m.Segments))
		for _, name := range m.Segments {
			inManifest[name] = true
			if !onDisk[name] {
				s.report.Missing = append(s.report.Missing, name)
				continue
			}
			order = append(order, name)
		}
		for _, name := range diskSegs {
			if !inManifest[name] {
				order = append(order, name)
			}
		}
	}

	var kept []string
	for i, name := range order {
		data, err := s.readAll(name)
		if err != nil {
			return fmt.Errorf("store: read segment %s: %w", name, err)
		}
		var pending []*Entry
		prefix, _, corrupt := scanRecords(data, func(payload []byte) error {
			var e Entry
			if err := json.Unmarshal(payload, &e); err != nil {
				return fmt.Errorf("undecodable entry: %w", err)
			}
			if err := e.validate(); err != nil {
				return err
			}
			pending = append(pending, &e)
			return nil
		})
		final := i == len(order)-1
		keep := true
		switch {
		case corrupt == nil:
			// Clean segment.
		case final && prefix >= int64(len(segMagic)):
			// Torn tail on the final segment: the normal crash case.
			// Cut the file back to its durable prefix and keep it.
			if err := s.fs.Truncate(filepath.Join(s.dir, name), prefix); err == nil {
				s.report.TruncatedBytes += int64(len(data)) - prefix
			} else if qerr := s.quarantine(name); qerr == nil {
				keep = false
				s.report.Quarantined = append(s.report.Quarantined, name)
			} else {
				return fmt.Errorf("store: segment %s torn at %d, truncate and quarantine both failed: %w", name, prefix, qerr)
			}
		case final && int64(len(data)) < int64(len(segMagic)):
			// A crash during segment creation left a file too short to
			// even hold the magic. Nothing in it was ever acknowledged;
			// delete it and stay healthy.
			if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil {
				return fmt.Errorf("store: remove torn segment %s: %w", name, err)
			}
			keep = false
			s.report.TruncatedBytes += int64(len(data))
		default:
			// A damaged non-final segment, or a final segment whose
			// magic itself is wrong: quarantine it whole and withhold
			// every record it held — an intact-looking record inside a
			// damaged segment is not worth trusting over the ability to
			// inspect the file untouched.
			if err := s.quarantine(name); err != nil {
				return fmt.Errorf("store: quarantine %s: %w", name, err)
			}
			keep = false
			s.report.Quarantined = append(s.report.Quarantined, name)
		}
		if keep {
			for _, e := range pending {
				s.applyEntryLocked(e)
				s.report.Records++
			}
			kept = append(kept, name)
		}
	}
	s.report.Segments = len(kept)
	s.segments = kept
	s.nextSeq = maxSeq + 1
	if m != nil && m.NextSeq > s.nextSeq {
		s.nextSeq = m.NextSeq
	}

	// Ready the active segment: reuse the final kept segment if it has
	// room, else start a fresh one.
	if n := len(s.segments); n > 0 {
		name := s.segments[n-1]
		size, err := s.fs.Size(filepath.Join(s.dir, name))
		if err == nil && size < s.opts.SegmentBytes {
			f, err := s.fs.OpenAppend(filepath.Join(s.dir, name))
			if err != nil {
				return fmt.Errorf("store: reopen segment %s: %w", name, err)
			}
			s.active, s.activeName, s.activeSize = f, name, size
		}
	}
	if s.active == nil {
		if err := s.newSegmentLocked(); err != nil {
			return err
		}
	}
	if err := s.writeManifestLocked(); err != nil {
		// The scan, not the manifest, is authoritative; a failed commit
		// costs nothing but a fallback scan next open.
		s.mManifestErrs.Inc()
	}
	return nil
}

// quarantine renames a damaged segment aside for forensics.
func (s *Store) quarantine(name string) error {
	return s.fs.Rename(filepath.Join(s.dir, name), filepath.Join(s.dir, name+quarantineExt))
}

// newSegmentLocked creates and syncs the next segment file and makes it
// active. Callers hold s.mu (or are single-threaded during Open).
func (s *Store) newSegmentLocked() error {
	name := segName(s.nextSeq)
	f, err := s.fs.Create(filepath.Join(s.dir, name))
	if err != nil {
		return fmt.Errorf("store: create segment %s: %w", name, err)
	}
	if _, err := f.Write(segMagic[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync segment header: %w", err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("store: sync dir after segment create: %w", err)
	}
	s.nextSeq++
	s.active, s.activeName, s.activeSize = f, name, int64(len(segMagic))
	s.segments = append(s.segments, name)
	return nil
}

// applyEntryLocked indexes one intact entry. Callers hold s.mu (or are
// single-threaded during Open).
func (s *Store) applyEntryLocked(e *Entry) {
	s.evals[evalIdxKey{e.Graph, e.SchedFP, e.TargetFP}] = e.Cost
	s.rows = append(s.rows, dumpRow{
		Graph:    fmt.Sprintf("%016x", e.Graph),
		TargetFP: fmt.Sprintf("%016x", e.TargetFP),
		SchedFP:  fmt.Sprintf("%016x", e.SchedFP),
		Cost:     e.Cost,
	})
}

// Put durably appends one priced mapping and indexes it. gfp must be
// g.Fingerprint() for the graph sched maps, and cost must be the
// deterministic evaluator's price for (graph, sched, tgt) — the same
// contract as EvalCache.Put. Returns (true, nil) when a new record was
// appended, (false, nil) when the mapping was already stored (costs
// are deterministic, so re-puts carry no new information), and
// (false, err) when the append could not be made durable — the caller
// keeps serving, the store repairs what it can, and the entry is NOT
// indexed: the in-memory index never claims more than the disk holds.
// A duplicate costs one index probe: only a new record is encoded,
// framed, written and fsync'd.
func (s *Store) Put(gfp uint64, tgt fm.Target, sched fm.Schedule, cost fm.Cost) (bool, error) {
	key := evalIdxKey{gfp, sched.Fingerprint(), targetFP(tgt)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return false, fmt.Errorf("%w: %w", ErrBroken, s.broken)
	}
	if _, ok := s.evals[key]; ok {
		s.mDedup.Inc()
		return false, nil
	}
	e := &Entry{
		Graph:    gfp,
		TargetFP: key.target,
		Target:   tgt,
		SchedFP:  key.sched,
		Sched:    sched,
		Cost:     cost,
	}
	payload, err := encodeEntry(e)
	if err != nil {
		return false, err
	}
	frame := appendRecord(make([]byte, 0, frameHeader+len(payload)), payload)
	if _, err := s.active.Write(frame); err != nil {
		s.mAppendErrs.Inc()
		s.repairLocked()
		return false, fmt.Errorf("store: append: %w", err)
	}
	if err := s.active.Sync(); err != nil {
		// After a failed fsync the tail's on-disk state is unknown
		// (the page cache may or may not have landed); the only
		// honest move is to fall back to the last known-good offset.
		s.mAppendErrs.Inc()
		s.repairLocked()
		return false, fmt.Errorf("store: sync append: %w", err)
	}
	s.activeSize += int64(len(frame))
	s.applyEntryLocked(e)
	s.mAppends.Inc()
	if s.activeSize >= s.opts.SegmentBytes {
		s.rotateLocked()
	}
	s.publishGaugesLocked()
	return true, nil
}

// repairLocked restores the append invariant after a failed write or sync:
// cut the active segment back to its last known-good offset and reopen
// it. If the segment cannot be restored, seal it (its good prefix
// remains valid) and rotate to a fresh one. If even that fails, the
// append path is broken: subsequent Puts fail fast, reads keep working.
// Callers hold s.mu.
func (s *Store) repairLocked() {
	s.active.Close()
	path := filepath.Join(s.dir, s.activeName)
	if err := s.fs.Truncate(path, s.activeSize); err == nil {
		if f, err := s.fs.OpenAppend(path); err == nil {
			s.active = f
			return
		}
	}
	// Truncate or reopen failed; abandon the tail to recovery (the next
	// Open will cut it) and try a fresh segment.
	if err := s.newSegmentLocked(); err != nil {
		s.broken = err
		s.gUnhealthy.Set(1)
		return
	}
	if err := s.writeManifestLocked(); err != nil {
		s.mManifestErrs.Inc()
	}
}

// rotateLocked seals the active segment and opens the next one. Rotation
// failures leave the current segment active (appends stay durable;
// rotation retries on the next Put). Callers hold s.mu.
func (s *Store) rotateLocked() {
	prev := s.active
	if err := s.newSegmentLocked(); err != nil {
		// Couldn't open the next segment (newSegmentLocked mutates no state
		// on failure): keep appending to the old one and retry on the
		// next Put that crosses the threshold.
		s.mManifestErrs.Inc()
		return
	}
	prev.Close()
	s.mRotations.Inc()
	if err := s.writeManifestLocked(); err != nil {
		s.mManifestErrs.Inc()
	}
}

// Lookup answers the exact cost of an already-priced mapping: the
// warm-restart read path layered under the serving EvalCache.
func (s *Store) Lookup(gfp, sfp uint64, tgt fm.Target) (fm.Cost, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cost, ok := s.evals[evalIdxKey{gfp, sfp, targetFP(tgt)}]
	return cost, ok
}

// Len returns the number of distinct mappings indexed.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evals)
}

// Report returns the recovery report of the Open that built this store.
func (s *Store) Report() RecoveryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// DumpLog writes one JSON line per applied record, in append order:
// the byte-comparable projection of the index that the recovery drills
// diff across runs. The schedule itself is elided — its fingerprint
// identifies it — so dumps stay small and stable.
func (s *Store) DumpLog(w io.Writer) error {
	s.mu.Lock()
	rows := make([]dumpRow, len(s.rows))
	copy(rows, s.rows)
	s.mu.Unlock()
	enc := json.NewEncoder(w)
	for i := range rows {
		if err := enc.Encode(&rows[i]); err != nil {
			return fmt.Errorf("store: dump: %w", err)
		}
	}
	return nil
}

// Sync flushes the active segment — the drain/SIGTERM flush hook. Put
// already fsyncs every append, so it is a cheap no-op in effect.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return fmt.Errorf("%w: %w", ErrBroken, s.broken)
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the active segment. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	var firstErr error
	if s.broken == nil {
		if err := s.active.Sync(); err != nil {
			firstErr = fmt.Errorf("store: sync on close: %w", err)
		}
	}
	if err := s.active.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("store: close: %w", err)
	}
	s.active = nil
	s.broken = errors.New("store: closed")
	return firstErr
}
