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
func TestHotPathFig4AllocsPerAccess(t *testing.T) {
	for _, xmem := range []bool{false, true} {
		cfg := FastConfig(128 << 10).WithUseCase1Bandwidth(2.1e9)
		cfg.XMemCache = xmem
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
		t.Logf("xmem=%v: %d accesses, %.4f allocs/access", xmem, accesses, perAccess)
		if perAccess >= 0.1 {
			t.Errorf("xmem=%v: %.3f allocs per simulated access, want < 0.1", xmem, perAccess)
		}
	}
}
