package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"xmem/internal/mem"
)

// TestAAMAscendingGrowthLinear maps N pages in ascending frame order, the
// order the sequential and banked frame allocators hand frames out in, and
// bounds the bytes allocated. Growing the dense directory to exactly
// pageIdx+1 on each new high page copied it once per page (quadratic: about
// 64 MiB for 4096 pages); amortized doubling copies it O(log N) times, so
// the directory costs at most a small constant times N pointers on top of
// the pages themselves.
func TestAAMAscendingGrowthLinear(t *testing.T) {
	const n = 4096
	m := NewAAM(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := uint64(0); p < n; p++ {
		m.Map(mem.Addr(p<<mem.PageShift), mem.PageBytes, AtomID(1+p%4))
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc

	// A page costs a 32-byte header plus its chunk array (16 bytes at the
	// default granularity); allow 80. The directory's doublings sum to
	// less than twice its final capacity, which is less than 2N pointers.
	const perPage, dirBound = 80, 4 * n * 8
	if limit := uint64(n*perPage + dirBound + 4096); got > limit {
		t.Fatalf("mapping %d ascending pages allocated %d B, want <= %d B (O(N))", n, got, limit)
	}
	if len(m.dir) != n {
		t.Fatalf("directory length %d, want %d", len(m.dir), n)
	}
}

// TestAAMResliceGrowthMatchesReference grows the directory by doubling,
// then maps pages below its capacity but beyond its length (the reslice
// path, which relies on the slots there being nil), unmaps some pages to
// leave holes, and checks Lookup, PageAtoms, MappedBytes, UnmapAll and the
// invariant checker against the hash-map reference model.
func TestAAMResliceGrowthMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewAAM(512)
	ref := newRefAAM(512)
	mapBoth := func(pa mem.Addr, size uint64, id AtomID) {
		m.Map(pa, size, id)
		ref.Map(pa, size, id)
	}
	var pages []uint64
	resliced := 0
	// Ascending high-water marks with gaps, so later marks land inside
	// the capacity a previous doubling reserved.
	for p := uint64(0); p < 300; p += uint64(1 + rng.Intn(5)) {
		if p >= uint64(len(m.dir)) && p < uint64(cap(m.dir)) {
			resliced++
		}
		pa := mem.Addr(p<<mem.PageShift | uint64(rng.Intn(mem.PageBytes)))
		mapBoth(pa, uint64(rng.Intn(2*mem.PageBytes)), AtomID(rng.Intn(8)))
		pages = append(pages, p, p+1, p+2)
	}
	if resliced == 0 {
		t.Fatal("no mapping exercised the reslice path")
	}
	// Churn: unmaps drop pages (leaving nil holes below len), remaps
	// refill them from the pool.
	for step := 0; step < 400; step++ {
		p := pages[rng.Intn(len(pages))]
		pa := mem.Addr(p<<mem.PageShift | uint64(rng.Intn(mem.PageBytes)))
		size := uint64(rng.Intn(2 * mem.PageBytes))
		id := AtomID(rng.Intn(8))
		if rng.Intn(2) == 0 {
			mapBoth(pa, size, id)
		} else {
			m.Unmap(pa, size, id)
			ref.Unmap(pa, size, id)
		}
	}
	if err := NewInvariantChecker().checkAAM(m); err != nil {
		t.Fatalf("invariant checker after reslice growth: %v", err)
	}
	assertAAMEqual(t, m, ref, pages)
	for id := AtomID(0); id < 8; id++ {
		runs, want := m.UnmapAll(id), ref.UnmapAll(id)
		if !reflect.DeepEqual(runs, want) {
			t.Fatalf("UnmapAll(%d) runs %v != ref %v", id, runs, want)
		}
		if err := NewInvariantChecker().checkAAM(m); err != nil {
			t.Fatalf("invariant checker after UnmapAll(%d): %v", id, err)
		}
	}
	assertAAMEqual(t, m, ref, pages)
}
