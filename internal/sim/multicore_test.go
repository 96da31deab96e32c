package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"xmem/internal/workload"
)

func multiConfig() MultiConfig {
	return MultiConfig{Core: testConfig()}
}

// corunWorkloads is a contended co-run mix: every core streams through a
// buffer several times larger than the L3, so all of them miss to the
// shared controller continuously.
func corunWorkloads(n int) []workload.Workload {
	ws := make([]workload.Workload, n)
	big := 3 * (256 << 10) / 64
	for i := range ws {
		ws[i] = streamWorkload(big+i*64, 2)
	}
	return ws
}

// marshalMulti renders a MultiResult to its canonical byte form (all
// exported state, including per-core metrics reports and span dumps).
func marshalMulti(t *testing.T, r MultiResult) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func TestRunMultiSingleMatchesSoloShape(t *testing.T) {
	// One core under the multi-core scheduler behaves like a solo run.
	w := streamWorkload(2048, 2)
	solo := MustRun(testConfig(), w)
	multi := MustRunMulti(multiConfig(), []workload.Workload{w})
	if len(multi.Cores) != 1 {
		t.Fatalf("cores = %d", len(multi.Cores))
	}
	a, b := solo.Cycles, multi.Cores[0].Cycles
	diff := float64(a) / float64(b)
	if diff < 0.95 || diff > 1.05 {
		t.Errorf("solo %d vs multi %d cycles; quantum interleaving should not change a solo run materially", a, b)
	}
	if solo.CPU.Loads != multi.Cores[0].CPU.Loads {
		t.Errorf("loads differ: %d vs %d", solo.CPU.Loads, multi.Cores[0].CPU.Loads)
	}
}

func TestRunMultiDeterministic(t *testing.T) {
	ws := []workload.Workload{streamWorkload(2048, 2), streamWorkload(1024, 3)}
	r1 := MustRunMulti(multiConfig(), ws)
	r2 := MustRunMulti(multiConfig(), ws)
	if r1.Cycles != r2.Cycles {
		t.Fatalf("nondeterministic multi-core run: %d vs %d", r1.Cycles, r2.Cycles)
	}
	for i := range r1.Cores {
		if r1.Cores[i].Cycles != r2.Cores[i].Cycles {
			t.Fatalf("core %d nondeterministic: %d vs %d", i, r1.Cores[i].Cycles, r2.Cores[i].Cycles)
		}
	}
}

// TestBoundWeaveDeterminism: the multicore scheduler must produce
// byte-identical results — including the span and metrics streams — across
// GOMAXPROCS settings and repeated runs. The name dates from the removed
// parallel bound-weave scheduler; the same gate now holds the serial one.
func TestBoundWeaveDeterminism(t *testing.T) {
	cfg := multiConfig()
	cfg.Core.XMemCache = true
	cfg.Core.Metrics = true
	cfg.Core.SpanSample = 64
	ws := corunWorkloads(3)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref []byte
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		for rep := 0; rep < 3; rep++ {
			got := marshalMulti(t, MustRunMulti(cfg, ws))
			if ref == nil {
				ref = got
				continue
			}
			if !bytes.Equal(ref, got) {
				t.Fatalf("GOMAXPROCS=%d rep=%d: result differs from reference (%d vs %d bytes)",
					procs, rep, len(got), len(ref))
			}
		}
	}
}

func TestRunMultiContentionSlowsCores(t *testing.T) {
	// Two memory-hungry co-runners share the controller: each must finish
	// later than it would alone.
	big := 3 * (256 << 10) / 64
	w := streamWorkload(big, 2)
	solo := MustRun(testConfig(), w)
	multi := MustRunMulti(multiConfig(), []workload.Workload{w, w})
	for i, c := range multi.Cores {
		if c.Cycles <= solo.Cycles {
			t.Errorf("core %d: %d cycles with a co-runner <= %d solo; no DRAM contention modelled",
				i, c.Cycles, solo.Cycles)
		}
	}
	// Shared DRAM served both cores.
	if multi.DRAM.Reads < 2*solo.DRAM.Reads/3*2/2 {
		t.Errorf("shared DRAM reads = %d, solo = %d", multi.DRAM.Reads, solo.DRAM.Reads)
	}
}

func TestRunMultiAsymmetricFinish(t *testing.T) {
	short := streamWorkload(256, 1)
	long := streamWorkload(4096, 3)
	multi := MustRunMulti(multiConfig(), []workload.Workload{short, long})
	if multi.Cores[0].Cycles >= multi.Cores[1].Cycles {
		t.Errorf("short workload (%d) finished after long (%d)",
			multi.Cores[0].Cycles, multi.Cores[1].Cycles)
	}
	if multi.Cycles != multi.Cores[1].Cycles {
		t.Errorf("machine cycles %d != slowest core %d", multi.Cycles, multi.Cores[1].Cycles)
	}
}

func TestRunMultiErrors(t *testing.T) {
	if _, err := RunMulti(multiConfig(), nil); err == nil {
		t.Error("empty workload list accepted")
	}
	bad := multiConfig()
	bad.Core.Alloc = "bogus"
	if _, err := RunMulti(bad, []workload.Workload{streamWorkload(8, 1)}); err == nil {
		t.Error("bad alloc accepted")
	}
}

// TestRunMultiHybridMatchesRun: one core on hybrid memory under the
// multicore scheduler must model the tiers exactly as a solo run does, with
// XMem tier placement on and off.
func TestRunMultiHybridMatchesRun(t *testing.T) {
	for _, xmemPlacement := range []bool{true, false} {
		cfg := FastConfig(64 << 10)
		cfg.Hybrid = &HybridConfig{DRAMBytes: 4 << 20, NVMBytes: 32 << 20, XMemPlacement: xmemPlacement}
		w := streamWorkload(4096, 2)
		solo := MustRun(cfg, w)
		multi := MustRunMulti(MultiConfig{Core: cfg}, []workload.Workload{w})
		got := multi.Cores[0]
		if got.Cycles != solo.Cycles {
			t.Errorf("XMemPlacement=%v: cycles %d under RunMulti, %d under Run", xmemPlacement, got.Cycles, solo.Cycles)
		}
		if got.TierDRAM == nil || got.TierNVM == nil {
			t.Fatalf("XMemPlacement=%v: no tier stats under RunMulti", xmemPlacement)
		}
		if *got.TierDRAM != *solo.TierDRAM || *got.TierNVM != *solo.TierNVM {
			t.Errorf("XMemPlacement=%v: tier stats differ: RunMulti DRAM %+v NVM %+v, Run DRAM %+v NVM %+v",
				xmemPlacement, *got.TierDRAM, *got.TierNVM, *solo.TierDRAM, *solo.TierNVM)
		}
	}
}

func TestRunMultiRejectsNUMAHybrid(t *testing.T) {
	cfg := multiConfig()
	cfg.NUMA = &NUMAConfig{Nodes: 2, NodeBytes: 64 << 20}
	cfg.Core.Hybrid = &HybridConfig{DRAMBytes: 4 << 20, NVMBytes: 32 << 20}
	if _, err := RunMulti(cfg, corunWorkloads(1)); err == nil {
		t.Error("NUMA with hybrid memory accepted")
	}
}

func TestRunMultiXMemPerCore(t *testing.T) {
	cfg := multiConfig()
	cfg.Core.XMemCache = true
	ws := []workload.Workload{streamWorkload(512, 3), streamWorkload(512, 3)}
	multi := MustRunMulti(cfg, ws)
	for i, c := range multi.Cores {
		if c.AMU.MapOps == 0 {
			t.Errorf("core %d: no AMU activity", i)
		}
		if c.PinnedAtomsMax == 0 {
			t.Errorf("core %d: nothing pinned", i)
		}
	}
}
