// Content-based routing support for the cluster tier. The router (in
// internal/cluster) partitions work across shards by
// fm.Fingerprint(graph, target); this file is where it learns that key
// from a raw request body, so the wire format stays a serve concern and
// the router never grows its own half-copy of the JSON schema.
package serve

import (
	"encoding/json"
	"fmt"

	"repro/internal/fm"
)

// routeProbe is the subset of every routable request body (/v1/eval,
// /v1/search, /v1/slack) that determines its shard: the graph identity
// and the target. Decoding is deliberately lenient — unknown fields are
// the endpoint's business, not the router's; the shard re-validates the
// full body on arrival.
type routeProbe struct {
	Recurrence *RecurrenceSpec `json:"recurrence"`
	GraphFP    string          `json:"graph_fp"`
	Target     TargetSpec      `json:"target"`
}

// RouteKey computes the cluster routing key — fm.Fingerprint(graph,
// target) — from a raw request body without building the graph: an
// inline recurrence is fingerprinted by fm.Recurrence.Fingerprint, which
// streams the hash its materialized graph would have; a fingerprint-only
// body folds the given graph_fp directly. Both land on the same shard
// because fm.Fingerprint(g, tgt) == fm.FingerprintFP(g.Fingerprint(),
// tgt) by construction. Errors mean the body could not possibly be
// served; the router still forwards it, so the client gets the shard's
// own refusal.
func RouteKey(body []byte) (uint64, error) {
	var p routeProbe
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, fmt.Errorf("route: decode request: %w", err)
	}
	tgt, err := p.Target.target()
	if err != nil {
		return 0, fmt.Errorf("route: %w", err)
	}
	switch {
	case p.Recurrence != nil:
		_, gfp, err := p.Recurrence.fingerprint()
		if err != nil {
			return 0, fmt.Errorf("route: %w", err)
		}
		return fm.FingerprintFP(gfp, tgt), nil
	case p.GraphFP != "":
		gfp, err := parseGraphFP(p.GraphFP)
		if err != nil {
			return 0, fmt.Errorf("route: %w", err)
		}
		return fm.FingerprintFP(gfp, tgt), nil
	default:
		return 0, fmt.Errorf("route: request needs either recurrence or graph_fp")
	}
}
