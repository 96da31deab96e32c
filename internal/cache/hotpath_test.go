package cache

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// fixedLower is a next level that answers every request after a fixed
// latency and records nothing, so it adds no allocation of its own.
type fixedLower uint64

func (l fixedLower) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	return mem.Done(at + uint64(l))
}

// TestHotPathCacheEvictPinnedAllocFree is the allocs/op gate for the
// cache's miss path (`make alloc-gate`): misses that evict in a set whose
// other ways are pinned pass the set's pinned flags to the policy as its
// blocked mask and allocate nothing, for LRU and the RRIP family. A sink is
// installed, so the access and eviction events it receives by value are
// held to the same zero.
func TestHotPathCacheEvictPinnedAllocFree(t *testing.T) {
	for _, policy := range []string{"lru", "srrip", "drrip"} {
		t.Run(policy, func(t *testing.T) {
			const sets, ways = 16, 4
			c, err := New(Config{Name: "L", SizeBytes: sets * ways * mem.LineBytes, Ways: ways, Latency: 4, Policy: policy}, fixedLower(100))
			if err != nil {
				t.Fatal(err)
			}
			pin := true
			c.SetClassifier(func(mem.Addr, mem.AccessKind) Insertion {
				return Insertion{Pin: pin, Atom: core.AtomID(1)}
			})
			var evicts int
			c.SetSink(func(ev Event) {
				if ev.Op == OpEvict {
					evicts++
				}
			})
			// Pin two ways of every set, then stream through set 0.
			for i := 0; i < 2*sets; i++ {
				c.Access(mem.Addr(i)*mem.LineBytes, mem.Read, uint64(i), 0)
			}
			pin = false
			stride := mem.Addr(sets * mem.LineBytes)
			next := mem.Addr(64) * stride
			i := uint64(0)
			// Batches of accesses per measured run: testing.AllocsPerRun
			// truncates to whole allocations per run.
			batch := func() {
				for k := 0; k < 200; k++ {
					c.Access(next, mem.Write, 1000+i, 0)
					next += stride
					i++
				}
			}
			batch()
			if allocs := testing.AllocsPerRun(10, batch); allocs != 0 {
				t.Errorf("evicting Access allocates %.0f per 200 ops, want 0", allocs)
			}
			if uint64(evicts) != c.Stats().Evictions {
				t.Errorf("sink saw %d evictions, stats count %d", evicts, c.Stats().Evictions)
			}
			if c.Stats().Evictions == 0 || c.Stats().PinEvictions != 0 {
				t.Errorf("stats %+v: want evictions of unpinned ways only", c.Stats())
			}
		})
	}
}
