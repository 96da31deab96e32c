package main

import (
	"fmt"
	"sort"

	"xmem/internal/core"
	"xmem/internal/dram"
	"xmem/internal/mem"
	"xmem/internal/sim"
	"xmem/internal/workload"
)

// A point is one simulation: one call to sim.Run (one workload) or
// sim.RunMulti (one workload per core). It is the benchmark's operation.
type point struct {
	name string
	cfg  sim.Config
	ws   []workload.Workload
}

// size selects the input size of a workload's points: full is the measured
// size, tiny the warm-up and smoke-test size.
type size string

const (
	sizeFull size = "full"
	sizeTiny size = "tiny"
)

// workloadSpec names one benchmark workload and builds its point list.
type workloadSpec struct {
	name   string
	points func(seed int64, sz size) []point
}

var workloads = []workloadSpec{
	{"uc1-tiled", uc1TiledPoints},
	{"uc2-placement", uc2PlacementPoints},
	{"corun8", corun8Points},
	{"uc1-observed", uc1ObservedPoints},
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// uc1L3 is the use-case-1 L3 the tiles are tuned against.
const uc1L3 = 128 << 10

// uc1Config is the Fig-4/5 machine: Baseline (DRRIP + multi-stride
// prefetcher) or XMem (pinning + atom-guided prefetching), with sequential
// frames and observability off.
func uc1Config(xmem bool) sim.Config {
	cfg := sim.FastConfig(uc1L3).WithUseCase1Bandwidth(2.1e9)
	cfg.XMemCache = xmem
	return cfg
}

func systemName(xmem bool) string {
	if xmem {
		return "xmem"
	}
	return "baseline"
}

// uc1N is the tiled kernels' matrix dimension at each size.
func uc1N(sz size) int {
	if sz == sizeTiny {
		return 80
	}
	return 112
}

// gemmThrash is gemm at the over-sized 256 KiB tile on the 128 KiB L3.
func gemmThrash(sz size) workload.Workload {
	return workload.Gemm(workload.TiledConfig{N: uc1N(sz), TileBytes: 256 << 10})
}

func uc1TiledPoints(_ int64, sz size) []point {
	kernels := []struct {
		name string
		w    workload.Workload
	}{
		{"gemm-thrash", gemmThrash(sz)},
		{"gemm-tuned", workload.Gemm(workload.TiledConfig{N: uc1N(sz), TileBytes: 8 << 10})},
		{"jacobi-2d", workload.Jacobi2D(workload.TiledConfig{N: uc1N(sz), TileBytes: 64 << 10, Steps: 4})},
	}
	var pts []point
	for _, k := range kernels {
		for _, xmem := range []bool{false, true} {
			pts = append(pts, point{
				name: k.name + "/" + systemName(xmem),
				cfg:  uc1Config(xmem),
				ws:   []workload.Workload{k.w},
			})
		}
	}
	return pts
}

// uc1ObservedPoints is the gemm thrash point on XMem with the metrics
// registry and 1-in-1000 span sampling on.
func uc1ObservedPoints(_ int64, sz size) []point {
	cfg := uc1Config(true)
	cfg.Metrics = true
	cfg.SpanSample = 1000
	return []point{{name: "gemm-thrash/xmem/observed", cfg: cfg, ws: []workload.Workload{gemmThrash(sz)}}}
}

// uc1ObservedTwin is the uc1-observed point with observability off: the
// base of obs.overhead_frac.
func uc1ObservedTwin(sz size) point {
	return point{name: "gemm-thrash/xmem", cfg: uc1Config(true), ws: []workload.Workload{gemmThrash(sz)}}
}

// uc2Programs are the Suite27 programs of the placement workload.
var uc2Programs = []string{"mcf", "lbm", "leslie3d"}

func uc2PlacementPoints(seed int64, sz size) []point {
	scale := 0.3
	if sz == sizeTiny {
		scale = 0.05
	}
	var pts []point
	for _, spec := range workload.Suite27() {
		if !contains(uc2Programs, spec.Name) {
			continue
		}
		w := workload.Synthetic(spec.Scaled(scale))
		for _, alloc := range []sim.AllocPolicy{sim.AllocRandom, sim.AllocXMemPlacement} {
			cfg := sim.FastConfig(256 << 10)
			cfg.Alloc = alloc
			cfg.AllocSeed = seed
			pts = append(pts, point{
				name: spec.Name + "/" + string(alloc),
				cfg:  cfg,
				ws:   []workload.Workload{w},
			})
		}
	}
	return pts
}

// corunCores is the core count of the co-run workload.
const corunCores = 8

// corun8Points runs a tiled gemm at its tuned tile on XMem on core 0 beside
// seven streaming antagonists, all sharing one DRAM controller under the
// default (serial) scheduler.
func corun8Points(_ int64, sz size) []point {
	n, streamLines, streamAccesses := 64, 8192, 20000
	if sz == sizeTiny {
		n, streamLines, streamAccesses = 48, 1024, 8000
	}
	ws := []workload.Workload{workload.Gemm(workload.TiledConfig{N: n, TileBytes: 8 << 10})}
	for i := 1; i < corunCores; i++ {
		ws = append(ws, workload.Synthetic(workload.SynthSpec{
			Name: fmt.Sprintf("stream%d", i),
			Structs: []workload.StructSpec{{
				Name:        "buf",
				SizeBytes:   uint64(streamLines) * mem.LineBytes,
				Pattern:     core.PatternRegular,
				StrideBytes: mem.LineBytes,
				Intensity:   150,
				RW:          core.ReadOnly,
			}},
			Accesses: streamAccesses,
			WorkPer:  2,
		}))
	}
	return []point{{name: "gemm-tuned+7stream/xmem", cfg: uc1Config(true), ws: ws}}
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// outcome is what one point's simulation produced.
type outcome struct {
	// cores holds each core's result (one entry for sim.Run).
	cores []sim.Result
	// cycles and dramStats are machine-wide: the slowest core's finish
	// and the shared controller's counters.
	cycles    uint64
	dramStats dram.Stats
	// raw is the sim.Result or sim.MultiResult the fingerprint is taken
	// from.
	raw any
}

// counters is the outcome's fingerprint: every simulated counter by name.
func (o outcome) counters() map[string]string {
	c := map[string]string{}
	flatten("", o.raw, c)
	return c
}

// accesses is the simulated loads and stores over all cores.
func (o outcome) accesses() uint64 {
	var n uint64
	for _, r := range o.cores {
		n += r.CPU.Loads + r.CPU.Stores
	}
	return n
}

// run simulates the point with the given workloads (the point's own, or
// traced wrappers of them).
func (p point) run(ws []workload.Workload) (outcome, error) {
	if len(ws) == 1 {
		r, err := sim.Run(p.cfg, ws[0])
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", p.name, err)
		}
		return outcome{cores: []sim.Result{r}, cycles: r.Cycles, dramStats: r.DRAM, raw: r}, nil
	}
	mr, err := sim.RunMulti(sim.MultiConfig{Core: p.cfg}, ws)
	if err != nil {
		return outcome{}, fmt.Errorf("%s: %w", p.name, err)
	}
	return outcome{cores: mr.Cores, cycles: mr.Cycles, dramStats: mr.DRAM, raw: mr}, nil
}
