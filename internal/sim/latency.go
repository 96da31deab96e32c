package sim

import (
	"sort"

	xm "xmem/internal/core"
	"xmem/internal/obs"
)

// latencyState holds the per-layer and per-atom latency histograms that
// ride along with metrics: service latency of demand accesses resolved at
// each cache level, DRAM/NVM demand-service latency, and the XMem
// prefetcher's lead time (how far ahead of demand prefetched fills land).
// All histograms use obs.Histogram's fixed log2 buckets; one observation
// is a handful of arithmetic ops.
type latencyState struct {
	hit       [numLevels]obs.Histogram
	dram, nvm obs.Histogram
	lead      obs.Histogram
	perAtom   map[xm.AtomID]*obs.Histogram
}

func newLatencyState() *latencyState {
	return &latencyState{perAtom: make(map[xm.AtomID]*obs.Histogram)}
}

// atomObserve records one DRAM demand-service latency against an atom.
func (ls *latencyState) atomObserve(id xm.AtomID, v uint64) {
	h := ls.perAtom[id]
	if h == nil {
		h = &obs.Histogram{}
		ls.perAtom[id] = h
	}
	h.Observe(v)
}

// report exports the non-empty histograms as the obs report's latency
// section (nil when nothing was observed). names resolves atom names.
func (ls *latencyState) report(names func(xm.AtomID) string) *obs.LatencyReport {
	var layers []obs.HistSummary
	add := func(name string, h *obs.Histogram) {
		if h.Count() > 0 {
			layers = append(layers, h.Summary(name))
		}
	}
	add("cache.l1d.hit_service", &ls.hit[levelL1D])
	add("cache.l2.hit_service", &ls.hit[levelL2])
	add("cache.l3.hit_service", &ls.hit[levelL3])
	add("dram.ctl.demand_service", &ls.dram)
	add("nvm.ctl.demand_service", &ls.nvm)
	add("prefetch.xmem.lead", &ls.lead)
	if len(layers) == 0 {
		return nil
	}
	rep := &obs.LatencyReport{Layers: layers}
	ids := make([]xm.AtomID, 0, len(ls.perAtom))
	for id := range ls.perAtom {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ls.perAtom[ids[i]], ls.perAtom[ids[j]]
		if a.Count() != b.Count() {
			return a.Count() > b.Count()
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids {
		rep.PerAtom = append(rep.PerAtom, obs.AtomLatency{
			ID:          id,
			HistSummary: ls.perAtom[id].Summary(names(id)),
		})
	}
	return rep
}
