// Content-based routing support for the cluster tier. The router (in
// internal/cluster) partitions work across shards by graph fingerprint;
// this file is where it learns that key from a raw request body, so the
// wire format stays a serve concern and the router never grows its own
// half-copy of the JSON schema.
package serve

import (
	"encoding/json"
	"fmt"
)

// routeProbe is the subset of every routable request body (/v1/eval,
// /v1/search, /v1/slack) that the router reads: the graph identity,
// which picks the shard, and the target, which it only validates.
// Decoding is deliberately lenient — unknown fields are the endpoint's
// business, not the router's; the shard re-validates the full body on
// arrival.
type routeProbe struct {
	Recurrence *RecurrenceSpec `json:"recurrence"`
	GraphFP    string          `json:"graph_fp"`
	Target     TargetSpec      `json:"target"`
}

// RouteKey computes the cluster routing key — the graph's structural
// fingerprint — from a raw request body without building the graph: an
// inline recurrence is fingerprinted by fm.Recurrence.Fingerprint, which
// streams the hash its materialized graph would have; a fingerprint-only
// body names it in graph_fp. Both land on the same shard, whatever the
// schedule or target, so every request about one graph reaches the
// replica set that registered it. The target is still validated, so a
// body no shard could serve is refused here. Errors mean the body could
// not possibly be served; the router still forwards it, so the client
// gets the shard's own refusal.
func RouteKey(body []byte) (uint64, error) {
	var p routeProbe
	if err := json.Unmarshal(body, &p); err != nil {
		return 0, fmt.Errorf("route: decode request: %w", err)
	}
	if _, err := p.Target.target(); err != nil {
		return 0, fmt.Errorf("route: %w", err)
	}
	switch {
	case p.Recurrence != nil:
		_, gfp, err := p.Recurrence.fingerprint()
		if err != nil {
			return 0, fmt.Errorf("route: %w", err)
		}
		return gfp, nil
	case p.GraphFP != "":
		gfp, err := parseGraphFP(p.GraphFP)
		if err != nil {
			return 0, fmt.Errorf("route: %w", err)
		}
		return gfp, nil
	default:
		return 0, fmt.Errorf("route: request needs either recurrence or graph_fp")
	}
}
