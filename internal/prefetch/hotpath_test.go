package prefetch

import (
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// TestHotPathPrefetchDrainAllocFree is the allocs/op gate for the
// prefetchers (`make alloc-gate`): once the two queue buffers have grown,
// a trained Observe (or OnAccess) followed by Drain reuses them and
// allocates nothing. Each measured run is a batch of steps because
// testing.AllocsPerRun truncates to whole allocations per run.
func TestHotPathPrefetchDrainAllocFree(t *testing.T) {
	t.Run("multistride", func(t *testing.T) {
		p := NewMultiStride(16, 2)
		pc, pa := mem.Addr(0x400), mem.Addr(0x100000)
		step := func() {
			p.Observe(pa, pc, 0, true)
			p.Drain()
			pa += mem.LineBytes
		}
		if allocs := testing.AllocsPerRun(10, batchOf(step)); allocs != 0 {
			t.Errorf("Observe+Drain allocates %.0f per 200 steps, want 0", allocs)
		}
		if p.Stats().Issued == 0 {
			t.Error("the stream never trained")
		}
	})
	t.Run("xmem", func(t *testing.T) {
		p := xmemWithAtom(t, 64, []core.PARange{{Base: 0x100000, Size: 1 << 20}})
		pa := mem.Addr(0x100000)
		step := func() {
			p.OnAccess(pa, 0, 0)
			p.Drain()
			pa += mem.LineBytes
		}
		if allocs := testing.AllocsPerRun(10, batchOf(step)); allocs != 0 {
			t.Errorf("OnAccess+Drain allocates %.0f per 200 steps, want 0", allocs)
		}
		if p.Stats().Issued == 0 {
			t.Error("the stream never trained")
		}
	})
}

// batchOf returns a function running step 200 times.
func batchOf(step func()) func() {
	return func() {
		for k := 0; k < 200; k++ {
			step()
		}
	}
}

// TestDrainEnqueueWhileIterating checks the double-buffer contract: requests
// queued while the caller walks a drained slice go to the other buffer, so
// the slice being walked is not overwritten and the new requests come out
// of the next Drain.
func TestDrainEnqueueWhileIterating(t *testing.T) {
	p := NewMultiStride(16, 1)
	pc := mem.Addr(0x400)
	for i := 0; i < 4; i++ {
		p.Observe(mem.Addr(0x1000+i*64), pc, 0, true)
	}
	first := p.Drain()
	if len(first) != 1 || first[0].Addr != 0x1100 {
		t.Fatalf("first drain = %+v", first)
	}
	p.Observe(0x1100, pc, 0, true) // enqueues 0x1140 while first is live
	if first[0].Addr != 0x1100 {
		t.Fatalf("enqueue overwrote the drained slice: %+v", first)
	}
	if second := p.Drain(); len(second) != 1 || second[0].Addr != 0x1140 {
		t.Fatalf("second drain = %+v, want the request queued during iteration", second)
	}
}
