package sim

import (
	"runtime"
	"testing"

	"xmem/internal/workload"
)

// TestHotPathFig4AllocsPerAccess bounds the whole simulated access path
// end to end (`make alloc-gate`): the Figure 4 thrash point (gemm at the
// 256 KiB tile on a 128 KiB L3, Baseline and XMem) at a small N must
// allocate fewer than 0.1 heap objects per simulated load or store. The
// per-layer gates pin the cache, prefetch and cpu steps at zero; what is
// left is one Future per DRAM read, one AAM page the first time a page is
// mapped, and machine set-up. Before the access path was
// made allocation-free this point allocated about 1.4 objects per access.
// The observed row runs XMem with metrics and 1-in-1000 spans, so every
// cache event sink is installed: an event that escaped to the heap would
// cost one allocation per access and fail the bound.
func TestHotPathFig4AllocsPerAccess(t *testing.T) {
	for _, row := range []struct {
		name           string
		xmem, observed bool
	}{
		{"baseline", false, false},
		{"xmem", true, false},
		{"xmem-observed", true, true},
	} {
		cfg := FastConfig(128 << 10).WithUseCase1Bandwidth(2.1e9)
		cfg.XMemCache = row.xmem
		if row.observed {
			cfg.Metrics = true
			cfg.SpanSample = 1000
		}
		w := workload.Gemm(workload.TiledConfig{N: 64, TileBytes: 256 << 10})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg, w)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		accesses := res.CPU.Loads + res.CPU.Stores
		perAccess := float64(after.Mallocs-before.Mallocs) / float64(accesses)
		t.Logf("%s: %d accesses, %.4f allocs/access", row.name, accesses, perAccess)
		if perAccess >= 0.1 {
			t.Errorf("%s: %.3f allocs per simulated access, want < 0.1", row.name, perAccess)
		}
	}
}
