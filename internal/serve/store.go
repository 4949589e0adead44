// The persistence seam: how the serving layer uses the mapping atlas
// (internal/store). The store sits UNDER the in-process EvalCache —
// probes happen lazily on cache misses, so a warm answer served from
// disk is visible as a counted store hit, never silently folded into
// cache statistics. Writes flow the other way: every mapping an eval
// batch prices lands in the atlas (deduplicated there). Only the eval
// path touches the atlas; searches neither read nor write it. Append
// failures degrade honestly: the request is still answered from the
// computed result, the error is counted, and the unhealthy gauge trips
// for ErrBroken.
package serve

import (
	"errors"

	"repro/internal/fm"
	"repro/internal/store"
)

// storeLookup probes the atlas for one priced mapping, counting the
// outcome. Callers only probe after an EvalCache miss.
func (s *Server) storeLookup(gfp, sfp uint64, tgt fm.Target) (fm.Cost, bool) {
	if s.store == nil {
		return fm.Cost{}, false
	}
	cost, ok := s.store.Lookup(gfp, sfp, tgt)
	if ok {
		s.mStoreHits.Inc()
	} else {
		s.mStoreMisses.Inc()
	}
	return cost, ok
}

// warmFromStore pre-loads the EvalCache with every requested schedule
// the atlas already knows, so the batch evaluation that follows prices
// only genuinely new mappings. Runs before EvalBatch on the drain path.
func (s *Server) warmFromStore(gfp uint64, tgt fm.Target, scheds []fm.Schedule) {
	if s.store == nil {
		return
	}
	for _, sched := range scheds {
		sfp := sched.Fingerprint()
		if _, ok := s.cache.Lookup(gfp, sfp, tgt); ok {
			continue
		}
		if cost, ok := s.storeLookup(gfp, sfp, tgt); ok {
			s.cache.Put(gfp, sfp, tgt, cost)
		}
	}
}

// storePutAll appends one batch's pricings, counting the outcomes.
// Append failures never fail the request that priced the mappings — the
// answer is correct either way — but they are counted, and a broken
// append path trips the unhealthy gauge.
func (s *Server) storePutAll(gfp uint64, tgt fm.Target, scheds []fm.Schedule, costs []fm.Cost) {
	if s.store == nil {
		return
	}
	for i, sched := range scheds {
		if len(sched) == 0 {
			continue
		}
		added, err := s.store.Put(gfp, tgt, sched, costs[i])
		if err != nil {
			s.mStorePutErrs.Inc()
			if errors.Is(err, store.ErrBroken) {
				s.gStoreUnhealthy.Set(1)
			}
			continue
		}
		if added {
			s.mStorePuts.Inc()
		}
	}
}
