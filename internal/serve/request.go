// Wire types for the mapd JSON API and their translation into fm
// objects. Every request is validated and resolved to its graph on the
// request goroutine before touching the admission queue, so the queue
// only ever holds well-formed work and a malformed request costs nothing
// but its own parse.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/fm"
	"repro/internal/fm/search"
	"repro/internal/geom"
	"repro/internal/tech"
)

// Wire-level caps. Requests beyond these are rejected with 422 rather
// than admitted: the service prices mappings of experiment-scale
// recurrences, and unbounded domains would turn one request into a
// denial of service.
const (
	// maxCells bounds the materialized domain size (nodes in the graph).
	maxCells = 1 << 15
	// maxDeps bounds the dependence offsets of a recurrence.
	maxDeps = 8
	// maxSchedules bounds the schedules priced by one eval request.
	maxSchedules = 64
	// maxSearchIters and maxSearchChains bound one annealing request.
	maxSearchIters  = 1 << 20
	maxSearchChains = 16
	// maxSweepTau bounds the affine sweep's time coefficients.
	maxSweepTau = 32
)

// RecurrenceSpec is the wire form of fm.Recurrence.
type RecurrenceSpec struct {
	Name string  `json:"name,omitempty"`
	Dims []int   `json:"dims"`
	Deps [][]int `json:"deps"`
	// Op is one of add, mul, cmp, logic, fma. Defaults to add.
	Op string `json:"op,omitempty"`
	// Bits is the per-cell operand width. Defaults to 32.
	Bits int `json:"bits,omitempty"`
}

// opClasses maps wire op names to tech classes.
var opClasses = map[string]tech.OpClass{
	"":      tech.OpAdd,
	"add":   tech.OpAdd,
	"mul":   tech.OpMul,
	"cmp":   tech.OpCmp,
	"logic": tech.OpLogic,
	"fma":   tech.OpFMA,
}

// fingerprint validates the spec and returns the fm.Recurrence it
// names, defaults applied, with the fingerprint of the graph that
// recurrence materializes: computed without materializing it.
func (rs *RecurrenceSpec) fingerprint() (fm.Recurrence, uint64, error) {
	op, ok := opClasses[rs.Op]
	if !ok {
		return fm.Recurrence{}, 0, fmt.Errorf("unknown op %q (want add|mul|cmp|logic|fma)", rs.Op)
	}
	if len(rs.Deps) > maxDeps {
		return fm.Recurrence{}, 0, fmt.Errorf("recurrence has %d dependence offsets, limit %d", len(rs.Deps), maxDeps)
	}
	cells := 1
	for _, d := range rs.Dims {
		if d <= 0 {
			return fm.Recurrence{}, 0, fmt.Errorf("non-positive domain extent %d", d)
		}
		if cells > maxCells/d {
			return fm.Recurrence{}, 0, fmt.Errorf("domain %v exceeds the %d-cell limit", rs.Dims, maxCells)
		}
		cells *= d
	}
	bits := rs.Bits
	if bits == 0 {
		bits = 32
	}
	name := rs.Name
	if name == "" {
		name = "recurrence"
	}
	r := fm.Recurrence{Name: name, Dims: rs.Dims, Deps: rs.Deps, Op: op, Bits: bits}
	gfp, err := r.Fingerprint()
	return r, gfp, err
}

// TargetSpec is the wire form of fm.Target: a w x h grid with optional
// overrides; zero fields take the documented fm defaults.
type TargetSpec struct {
	Width           int     `json:"width"`
	Height          int     `json:"height,omitempty"`
	PitchMM         float64 `json:"pitch_mm,omitempty"`
	MemWordsPerNode int     `json:"mem_words_per_node,omitempty"`
}

// maxGridNodes caps a requested target's grid at 4096 nodes.
const maxGridNodes = 1 << 12

func (ts *TargetSpec) target() (fm.Target, error) {
	w, h := ts.Width, ts.Height
	if h == 0 {
		h = 1
	}
	// Bound each side before multiplying: a product of two huge sides can
	// wrap to 0 and slip past the node cap.
	if w <= 0 || h <= 0 || w > maxGridNodes || h > maxGridNodes || w*h > maxGridNodes {
		return fm.Target{}, fmt.Errorf("invalid grid %dx%d", w, h)
	}
	tgt := fm.DefaultTarget(w, h)
	if ts.PitchMM > 0 {
		tgt.Grid.PitchMM = ts.PitchMM
	}
	if ts.MemWordsPerNode > 0 {
		tgt.MemWordsPerNode = ts.MemWordsPerNode
	}
	if err := tgt.Validate(); err != nil {
		return fm.Target{}, err
	}
	return tgt, nil
}

// ScheduleSpec names one mapping of the requested graph.
type ScheduleSpec struct {
	// Kind is one of:
	//   serial       — everything on one node, ASAP times;
	//   list         — the default mapper's greedy list schedule;
	//   antidiagonal — wavefront over P processors (2-D domains only);
	//   affine       — place (a1*i+a2*j) mod P, time t1*i+t2*j (2-D only).
	Kind string `json:"kind"`
	// P is the processor count for antidiagonal and affine kinds;
	// defaults to the target grid width.
	P int `json:"p,omitempty"`
	// Stride is the antidiagonal unit step; 0 means the minimum legal
	// stride for the target.
	Stride int64 `json:"stride,omitempty"`
	// A1, A2, T1, T2 are the affine coefficients.
	A1 int   `json:"a1,omitempty"`
	A2 int   `json:"a2,omitempty"`
	T1 int64 `json:"t1,omitempty"`
	T2 int64 `json:"t2,omitempty"`
}

// build materializes the schedule for g/dom on tgt. dom may be nil for
// kinds that do not need a domain (serial, list).
func (ss *ScheduleSpec) build(g *fm.Graph, dom *fm.Domain, tgt fm.Target) (fm.Schedule, error) {
	p := ss.P
	if p == 0 {
		p = tgt.Grid.Width
	}
	switch ss.Kind {
	case "serial":
		return fm.SerialSchedule(g, tgt, geom.Pt(0, 0)), nil
	case "list":
		return fm.ListSchedule(g, tgt), nil
	case "antidiagonal":
		if dom == nil || len(dom.Dims()) != 2 {
			return nil, fmt.Errorf("antidiagonal needs a 2-D recurrence domain")
		}
		stride := ss.Stride
		if stride == 0 {
			out := g.Outputs()[0]
			min, err := fm.MinAntiDiagonalStrideChecked(tgt, g.Op(out), g.Bits(out), dom.Dims()[1], p)
			if err != nil {
				return nil, err
			}
			stride = min
		}
		return fm.AntiDiagonalScheduleChecked(dom, p, stride, geom.Pt(0, 0))
	case "affine":
		if dom == nil || len(dom.Dims()) != 2 {
			return nil, fmt.Errorf("affine needs a 2-D recurrence domain")
		}
		if p <= 0 || p > tgt.Grid.Width {
			return nil, fmt.Errorf("affine p=%d outside grid width %d", p, tgt.Grid.Width)
		}
		if ss.T1 == 0 && ss.T2 == 0 {
			return nil, fmt.Errorf("affine time coefficients must not both be zero")
		}
		return fm.ScheduleByIndex(dom, func(idx []int) fm.Assignment {
			return fm.Assignment{
				Place: geom.Pt(((ss.A1*idx[0]+ss.A2*idx[1])%p+p)%p, 0),
				Time:  ss.T1*int64(idx[0]) + ss.T2*int64(idx[1]),
			}
		}), nil
	default:
		return nil, fmt.Errorf("unknown schedule kind %q (want serial|list|antidiagonal|affine)", ss.Kind)
	}
}

// EvalRequest prices one or more schedules of one graph on one target.
// The graph comes either inline (Recurrence) or by fingerprint of a
// graph this server materialized earlier (GraphFP, as returned in every
// response); fingerprint-only requests save the client re-sending and
// the server re-materializing the recurrence.
type EvalRequest struct {
	Recurrence *RecurrenceSpec `json:"recurrence,omitempty"`
	GraphFP    string          `json:"graph_fp,omitempty"`
	Target     TargetSpec      `json:"target"`
	Schedules  []ScheduleSpec  `json:"schedules"`
	// DeadlineMS bounds the request end to end (queue wait included).
	// The X-Deadline-Ms header takes precedence. 0 means the server
	// default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// EvalResponse is the answer to an EvalRequest.
type EvalResponse struct {
	// GraphFP is the graph's fingerprint (hex), usable as GraphFP in
	// later requests.
	GraphFP string `json:"graph_fp"`
	// Costs holds one evaluated cost per requested schedule, in order.
	Costs []fm.Cost `json:"costs"`
	// Degraded marks a cache-only answer produced under overload or
	// shed/pause admission: correct (the cache stores exact costs) but
	// served without doing new work.
	Degraded bool `json:"degraded"`
	// BatchSize is the number of requests coalesced into the batch that
	// priced this one (1 = no coalescing; 0 on degraded answers, which
	// bypass the queue).
	BatchSize int `json:"batch_size"`
}

// SearchRequest asks for a mapping search over one graph and target.
type SearchRequest struct {
	Recurrence *RecurrenceSpec `json:"recurrence,omitempty"`
	GraphFP    string          `json:"graph_fp,omitempty"`
	Target     TargetSpec      `json:"target"`
	// Kind is "anneal" (default) or "exhaustive" (affine sweep; 2-D
	// recurrences only).
	Kind string `json:"kind,omitempty"`
	// Objective is time (default), energy, edp, or footprint.
	Objective string `json:"objective,omitempty"`
	// Iters, Chains, Seed tune the annealer (defaults 2000, 2, 1).
	Iters  int   `json:"iters,omitempty"`
	Chains int   `json:"chains,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// P and MaxTau bound the exhaustive sweep (defaults: grid width, op
	// latency + hop).
	P          int   `json:"p,omitempty"`
	MaxTau     int64 `json:"max_tau,omitempty"`
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Validate checks the search parameters that need neither the graph nor
// the target: objective, kind, and the annealer's iteration and chain
// bounds. It is the one place a search request's fields are refused, so
// mapd, its exchange slices and the cluster router all give the same
// verdict in the same words.
func (req *SearchRequest) Validate() error {
	if _, ok := objectives[req.Objective]; !ok {
		return fmt.Errorf("unknown objective %q (want time|energy|edp|footprint)", req.Objective)
	}
	if req.Kind != "" && req.Kind != "anneal" && req.Kind != "exhaustive" {
		return fmt.Errorf("unknown search kind %q (want anneal|exhaustive)", req.Kind)
	}
	if req.Iters < 0 || req.Iters > maxSearchIters {
		return fmt.Errorf("iters %d outside 0..%d", req.Iters, maxSearchIters)
	}
	if req.Chains < 0 || req.Chains > maxSearchChains {
		return fmt.Errorf("chains %d outside 0..%d", req.Chains, maxSearchChains)
	}
	return nil
}

// SearchResponse reports the best mapping a search found.
type SearchResponse struct {
	GraphFP string `json:"graph_fp"`
	// Best describes the winning mapping.
	Best SearchBest `json:"best"`
	// DoneIters / TotalIters report annealing progress; a partial result
	// has DoneIters < TotalIters.
	DoneIters  int `json:"done_iters"`
	TotalIters int `json:"total_iters"`
	// Partial marks a deadline-bounded result: the best mapping found
	// before the request deadline expired, not the full search's answer.
	Partial bool `json:"partial"`
	// Degraded marks a best-so-far answer served from a previous or
	// still-running search because the server had no capacity to run
	// this one.
	Degraded bool `json:"degraded"`
}

// SearchBest is the cost summary of a search winner.
type SearchBest struct {
	Objective  float64 `json:"objective"`
	Cost       fm.Cost `json:"cost"`
	PlacesUsed int     `json:"places_used"`
}

// maxExchangeRounds bounds the barrier count of one scatter-gather
// search; maxExchangeShards bounds the shard rank a round may claim.
const (
	maxExchangeRounds = 64
	maxExchangeShards = 1024
)

// AssignmentSpec is the wire form of one fm.Assignment: where a node
// runs and when it starts. It is how schedules cross process boundaries
// in the cluster's exchange protocol — small (drill-scale graphs are a
// few hundred nodes) and exact (integers only).
type AssignmentSpec struct {
	X int   `json:"x"`
	Y int   `json:"y"`
	T int64 `json:"t"`
}

// ExchangeRequest is one shard's slice of one round of a scatter-gather
// search: run Search.Iters annealing proposals, starting every chain
// from Init (the global best so far; nil on round zero, where each shard
// starts from its own default mapping), seeded by (Search.Seed, Shard,
// Round) so no two shards or rounds ever share an RNG stream. The
// router is the barrier: it collects every shard's answer, elects the
// global best (lowest objective, ties to the lowest shard index), and
// hands it back as the next round's Init.
type ExchangeRequest struct {
	Search SearchRequest `json:"search"`
	// Shard is this shard's index in the replica set (its rank in the
	// cluster's seed space, not its network address).
	Shard int `json:"shard"`
	// Round / Rounds position this slice in the barrier sequence.
	Round  int `json:"round"`
	Rounds int `json:"rounds"`
	// Init is the adopted starting mapping; times are re-derived by ASAP,
	// so only the placements bind.
	Init []AssignmentSpec `json:"init,omitempty"`
}

// ExchangeResponse reports one shard's round result, schedule included —
// the router needs the full mapping to seed the next round, not just the
// cost summary a SearchResponse carries.
type ExchangeResponse struct {
	GraphFP   string           `json:"graph_fp"`
	Best      SearchBest       `json:"best"`
	Schedule  []AssignmentSpec `json:"schedule"`
	DoneIters int              `json:"done_iters"`
	Round     int              `json:"round"`
}

// SlackRequest profiles per-edge slack of one schedule. The shape is an
// EvalRequest with exactly one schedule.
type SlackRequest struct {
	Recurrence *RecurrenceSpec `json:"recurrence,omitempty"`
	GraphFP    string          `json:"graph_fp,omitempty"`
	Target     TargetSpec      `json:"target"`
	Schedule   ScheduleSpec    `json:"schedule"`
}

// SlackResponse is the slack profile of one mapping.
type SlackResponse struct {
	GraphFP string          `json:"graph_fp"`
	Summary fm.SlackSummary `json:"summary"`
	// Edges carries the full per-edge profile when the graph has at most
	// maxSlackEdges edges; larger profiles return only the summary.
	Edges []fm.EdgeSlack `json:"edges,omitempty"`
}

// maxSlackEdges bounds the per-edge profile included in a SlackResponse.
const maxSlackEdges = 4096

// errorResponse is the uniform error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// objectives maps wire objective names to search objectives.
var objectives = map[string]search.Objective{
	"":          search.MinTime,
	"time":      search.MinTime,
	"energy":    search.MinEnergy,
	"edp":       search.MinEDP,
	"footprint": search.MinFootprint,
}

// MaxBodyBytes bounds every request body mapd and maprouter read.
const MaxBodyBytes = 1 << 20

// decodeJSON decodes a body of at most MaxBodyBytes into v, rejecting
// unknown fields so client typos fail loudly instead of silently
// defaulting.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	// Trailing garbage after the JSON value is a malformed request too.
	if dec.More() {
		return fmt.Errorf("decode request: trailing data after JSON body")
	}
	_, _ = io.Copy(io.Discard, r.Body)
	return nil
}

// parseGraphFP parses the hex fingerprint form used on the wire.
func parseGraphFP(s string) (uint64, error) {
	fp, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("graph_fp %q is not a hex fingerprint", s)
	}
	return fp, nil
}

// formatGraphFP renders a fingerprint the way parseGraphFP reads it.
func formatGraphFP(fp uint64) string {
	return strconv.FormatUint(fp, 16)
}
