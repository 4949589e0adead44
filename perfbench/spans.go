package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Wire headers carrying a traced request's identity between layers.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// span is one layer-boundary interval of one request. The spans of a
// request share Req and nest generator > router > attempt > shard.
type span struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog keeps a traced run's spans in memory. A nil *spanLog is the
// untraced run: every method is a no-op.
type spanLog struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span // guarded by mu
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// spanRef is the request identity a traced handler binds into its
// context, so the router's outgoing attempts inherit it.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

// middleware records a span named name around every request h serves
// that carries a request id.
func (l *spanLog) middleware(name string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		parent, err2 := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Name: name, Path: r.URL.Path, ID: l.ids.Add(1), Parent: parent, Req: req, Start: l.now()}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req: req, id: s.ID})))
		s.End = l.now()
		l.add(s)
	})
}

// roundTripper wraps the router's client: each shard attempt made on
// behalf of a traced request becomes an "attempt" span, and the request
// id rides on to the shard as headers.
func (l *spanLog) roundTripper(next http.RoundTripper) http.RoundTripper {
	return attemptTracer{l: l, next: next}
}

type attemptTracer struct {
	l    *spanLog
	next http.RoundTripper
}

func (t attemptTracer) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.next.RoundTrip(r)
	}
	s := span{Name: "attempt", Path: r.URL.Path, ID: t.l.ids.Add(1), Parent: ref.id, Req: ref.req, Start: t.l.now()}
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatUint(ref.req, 10))
	r.Header.Set(hdrParent, strconv.FormatUint(s.ID, 10))
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		s.End = t.l.now()
		t.l.add(s)
		return nil, err
	}
	// The attempt ends when the router has read and closed the body.
	resp.Body = &spanBody{ReadCloser: resp.Body, l: t.l, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	l    *spanLog
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.l.now()
		b.l.add(b.s)
	})
	return err
}

// writeFile writes the spans as one JSON document.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(l.snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fsCounters counts the stores' file-system traffic in a traced run.
type fsCounters struct {
	fsyncs, fsyncNS, writeBytes atomic.Int64
}

type fsTotals struct{ fsyncs, fsyncNS, writeBytes int64 }

func (c *fsCounters) totals() fsTotals {
	if c == nil {
		return fsTotals{}
	}
	return fsTotals{c.fsyncs.Load(), c.fsyncNS.Load(), c.writeBytes.Load()}
}

func (c *fsCounters) sync(f func() error) error {
	start := time.Now()
	err := f()
	c.fsyncNS.Add(int64(time.Since(start)))
	c.fsyncs.Add(1)
	return err
}

// countingFS is a store.FS that counts writes and fsyncs.
type countingFS struct {
	store.FS
	c *fsCounters
}

func (f countingFS) Create(name string) (store.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, c: f.c}, nil
}

func (f countingFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: file, c: f.c}, nil
}

func (f countingFS) SyncDir(dir string) error {
	return f.c.sync(func() error { return f.FS.SyncDir(dir) })
}

type countingFile struct {
	store.File
	c *fsCounters
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error { return f.c.sync(f.File.Sync) }
