package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

// This file is the traced run. It records spans from the benchmark's own
// code around every call it makes into the simulator's public surface —
// one per sim.Run/RunMulti point and one per workload.Program call through
// a wrapping Program — and takes a CPU profile of the same run, which it
// charges to layers (pprof.go). End-to-end metrics never come from here.

// callKind classifies the Program calls the wrapper sees.
type callKind uint8

const (
	kindAccess callKind = iota // Load, Store
	kindWork
	kindMalloc
	kindLib
	numKinds
)

var kindNames = [numKinds]string{"access", "work", "malloc", "lib"}

// spanSampleEvery keeps one in this many Load/Store spans; every point,
// Malloc and Lib span is kept. The phase comes from the seed.
const spanSampleEvery = 1024

// spanRec is one recorded span. Run is the point run it belongs to and
// doubles as its trace identifier; Parent 0 marks the point span.
type spanRec struct {
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Core   int    `json:"core"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer follows the Program calls of one point at a time. The serial
// multicore scheduler runs one core at a time and hands over through
// channels, so the tracer needs no lock.
//
// Every call's entry and exit is an event. The time between two events
// is charged by what separates them: exit→entry on one core is workload
// code, entry→exit on one core is the simulator serving the call, and any
// gap where the core changes contains a quantum handoff.
type tracer struct {
	base  time.Time
	phase uint64

	run        int
	pointStart int64
	started    bool
	lastCore   int
	lastNs     int64
	enterNs    [corunCores]int64
	seq        uint64 // timed calls so far, for span sampling

	insideNs   [numKinds]int64
	count      [numKinds]uint64
	workloadNs int64
	switchNs   int64
	switches   uint64
	edgeNs     int64
	pointNs    int64

	spans []spanRec
}

func newTracer(seed int64) *tracer {
	return &tracer{base: time.Now(), phase: uint64(seed) % spanSampleEvery}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) mark(core int, enter bool, kind callKind) int64 {
	now := t.now()
	gap := now - t.lastNs
	switch {
	case !t.started:
		t.edgeNs += gap
	case core != t.lastCore:
		t.switches++
		t.switchNs += gap
	case enter:
		t.workloadNs += gap
	default:
		t.insideNs[kind] += gap
	}
	t.started, t.lastCore, t.lastNs = true, core, now
	return now
}

func (t *tracer) enter(core int) {
	t.enterNs[core] = t.mark(core, true, 0)
}

func (t *tracer) exit(core int, kind callKind, name string) {
	now := t.mark(core, false, kind)
	t.count[kind]++
	t.seq++
	if kind >= kindMalloc || (t.seq+t.phase)%spanSampleEvery == 0 {
		t.spans = append(t.spans, spanRec{Run: t.run, Name: name, Core: core, Parent: t.run, Start: t.enterNs[core], End: now})
	}
}

func (t *tracer) beginPoint() {
	t.run++
	t.started = false
	t.lastNs = t.now()
	t.pointStart = t.lastNs
}

func (t *tracer) endPoint(name string) {
	now := t.now()
	t.edgeNs += now - t.lastNs
	t.pointNs += now - t.pointStart
	t.spans = append(t.spans, spanRec{Run: t.run, Name: "point " + name, Core: -1, Start: t.pointStart, End: now})
}

// wrap returns the workloads with their Program calls traced, workload i
// as core i.
func (t *tracer) wrap(ws []workload.Workload) []workload.Workload {
	out := make([]workload.Workload, len(ws))
	for i, w := range ws {
		w, core := w, i
		out[i] = workload.Workload{
			Name:    w.Name,
			Declare: w.Declare,
			Run: func(p workload.Program) {
				w.Run(&tracedProgram{inner: p, t: t, core: core})
			},
		}
	}
	return out
}

// tracedProgram forwards every workload.Program call, traced.
type tracedProgram struct {
	inner workload.Program
	t     *tracer
	core  int
}

func (p *tracedProgram) Load(site int, va mem.Addr) {
	p.t.enter(p.core)
	p.inner.Load(site, va)
	p.t.exit(p.core, kindAccess, "Load")
}

func (p *tracedProgram) Store(site int, va mem.Addr) {
	p.t.enter(p.core)
	p.inner.Store(site, va)
	p.t.exit(p.core, kindAccess, "Store")
}

// Work is counted but not timed: it is the most frequent call and the
// cheapest to serve, so its time stays in the workload's share. A quantum
// handoff inside it still shows, as the next event comes from another core.
func (p *tracedProgram) Work(n int) {
	p.inner.Work(n)
	p.t.count[kindWork]++
}

func (p *tracedProgram) Malloc(name string, size uint64, atom core.AtomID) mem.Addr {
	p.t.enter(p.core)
	va := p.inner.Malloc(name, size, atom)
	p.t.exit(p.core, kindMalloc, "Malloc")
	return va
}

func (p *tracedProgram) Lib() *core.Lib {
	p.t.enter(p.core)
	l := p.inner.Lib()
	p.t.exit(p.core, kindLib, "Lib")
	return l
}

// tally sums the simulated counters of the traced point runs: the exact
// denominators of the per-layer metrics.
type tally struct {
	accesses, coreCycles, robStall, lsqStall uint64
	l1dAcc, l1dMiss, l2Acc, l2Miss, l3Acc    uint64
	l3Miss, l3Writebacks, pfUseful, pfFills  uint64
	lookups, aamAccesses, mapOps             uint64
	dramReqs, rowHits, rowAll, demandReads   uint64
	readLatSum, busBusy, busCycles           uint64
}

func (t *tally) add(p point, o outcome) {
	for _, r := range o.cores {
		t.accesses += r.CPU.Loads + r.CPU.Stores
		t.coreCycles += r.CPU.Cycles
		t.robStall += r.CPU.ROBStallCycles
		t.lsqStall += r.CPU.LSQStallCycles
		t.l1dAcc += r.L1D.DemandAccesses()
		t.l1dMiss += r.L1D.ReadMisses + r.L1D.WriteMisses
		t.l2Acc += r.L2.DemandAccesses()
		t.l2Miss += r.L2.ReadMisses + r.L2.WriteMisses
		t.l3Acc += r.L3.DemandAccesses()
		t.l3Miss += r.L3.ReadMisses + r.L3.WriteMisses
		t.l3Writebacks += r.L3.Writebacks
		t.pfUseful += r.L3.PrefetchUseful
		t.pfFills += r.L3.PrefetchFills
		t.lookups += r.AMU.Lookups
		t.aamAccesses += r.AMU.AAMAccesses
		t.mapOps += r.AMU.MapOps
	}
	d := o.dramStats
	t.dramReqs += d.Reads + d.Writes
	t.rowHits += d.RowHits
	t.rowAll += d.RowHits + d.RowEmpty + d.RowConflicts
	t.demandReads += d.DemandReads
	t.readLatSum += d.DemandReadLatencySum
	t.busBusy += d.BusBusy
	t.busCycles += o.cycles * uint64(p.cfg.Geometry.Channels)
}

// processCPU is the process's user plus system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cpuClasses reads the runtime's cumulative CPU accounting.
func cpuClasses() (gc, total, idle float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()
}

// traceWindow accumulates what the profiler and the runtime saw over the
// traced passes.
type traceWindow struct {
	profile   cpuProfile
	sampledNs int64 // CPU time the samples stood for before rescaling
	procNs    int64 // process CPU time (getrusage)
	wallNs    int64
	gcCPU     float64 // runtime/metrics GC CPU seconds
	usedCPU   float64 // runtime/metrics non-idle CPU seconds
}

// tracedPass runs every point once through the tracing wrapper under the
// CPU profiler, and returns how many points' outputs differ from the
// untraced base.
func (b *bench) tracedPass(tr *tracer, tl *tally, base []map[string]string, win *traceWindow) int {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		logf("cpu profile: %v", err)
		b.failed++
		return 0
	}
	gc0, total0, idle0 := cpuClasses()
	proc0 := processCPU()
	t0 := time.Now()
	mismatches := 0
	for i, p := range b.pts {
		o, _, ok := b.runChecked(refKey(b.spec.name, b.opt.size, p.name), p, tr)
		if !ok {
			continue
		}
		// Trace integrity: tracing from outside must not change any
		// simulated output.
		if base[i] != nil {
			if d := diffCounters(base[i], o.counters()); len(d) > 0 {
				logf("%s: traced run differs from untraced: %s", p.name, describeDiffs(d))
				mismatches++
				b.failed++
			}
		}
		tl.add(p, o)
	}
	win.wallNs += time.Since(t0).Nanoseconds()
	pprof.StopCPUProfile()
	gc1, total1, idle1 := cpuClasses()
	procNs := processCPU() - proc0
	win.procNs += procNs
	win.gcCPU += gc1 - gc0
	win.usedCPU += (total1 - idle1) - (total0 - idle0)
	profile, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		logf("%v", err)
		b.failed++
		return mismatches
	}
	win.sampledNs += profile.totalNs()
	profile.scaleTo(procNs)
	win.profile.samples = append(win.profile.samples, profile.samples...)
	return mismatches
}

// traced is the traced run. Each round is an untraced pass over the points
// (the base of the tracing overhead and of the trace-integrity check)
// followed by a traced pass; rounds repeat until opt.seconds have passed.
// Interleaving keeps a drifting host from biasing the overhead.
func (b *bench) traced() record {
	base := make([]map[string]string, len(b.pts))
	// On uc1-observed, each round also runs the point with observability
	// off, for obs.overhead_frac.
	var twin *point
	if b.spec.name == "uc1-observed" {
		tw := uc1ObservedTwin(b.opt.size)
		twin = &tw
	}
	tr := newTracer(b.opt.seed)
	var tl tally
	var win traceWindow
	var untracedRounds, tracedRounds, observedS, twinS []float64
	mismatches := 0
	limit := time.Duration(b.opt.seconds) * time.Second
	phase := time.Now()
	rounds := 0
	for ; rounds == 0 || time.Since(phase) < limit; rounds++ {
		var untraced float64
		for i, p := range b.pts {
			o, t, ok := b.runChecked(refKey(b.spec.name, b.opt.size, p.name), p, nil)
			untraced += t.secs
			if ok && base[i] == nil {
				base[i] = o.counters()
				b.infos = append(b.infos, pointInfo{Name: p.name, Accesses: o.accesses(), Fingerprint: hashCounters(base[i])})
			}
		}
		untracedRounds = append(untracedRounds, untraced)
		if twin != nil {
			if _, t, ok := b.runChecked(refKey("uc1-tiled", b.opt.size, twin.name), *twin, nil); ok {
				observedS = append(observedS, untraced)
				twinS = append(twinS, t.secs)
			}
		}
		before := tr.pointNs
		mismatches += b.tracedPass(tr, &tl, base, &win)
		tracedRounds = append(tracedRounds, float64(tr.pointNs-before)/1e9)
	}
	if tr.count[kindAccess] != tl.accesses {
		logf("wrapper saw %d accesses, results report %d", tr.count[kindAccess], tl.accesses)
		mismatches++
		b.failed++
	}

	profile := &win.profile
	rec := record{Metrics: layerMetrics(profile, tl, float64(win.wallNs))}
	perRound := func(x uint64) float64 { return float64(x) / float64(rounds) }
	obsOverhead := 0.0
	if len(twinS) > 0 {
		obsOverhead = ratio(median(observedS), median(twinS)) - 1
	}
	rec.set("runtime.gc_cpu_frac", ratio(win.gcCPU, win.usedCPU), "ratio")
	rec.set("sim.ns_per_access", ratio(float64(tr.insideNs[kindAccess]), float64(tr.count[kindAccess])), "ns")
	rec.set("sim.switches", perRound(tr.switches), "count")
	rec.set("sim.switch_ns", ratio(float64(tr.switchNs), float64(tr.switches)), "ns")
	rec.set("workload.span_self_frac", ratio(float64(tr.workloadNs), float64(tr.pointNs)), "ratio")
	rec.set("workload.accesses", perRound(tr.count[kindAccess]), "count")
	rec.set("obs.overhead_frac", obsOverhead, "ratio")
	rec.set("trace.overhead_frac", ratio(median(tracedRounds), median(untracedRounds))-1, "ratio")
	rec.set("trace.wall_s", float64(win.wallNs)/1e9, "s")
	rec.set("trace.untraced_round_s", median(untracedRounds), "s")
	rec.set("trace.mismatches", float64(mismatches), "count")

	inside, calls := map[string]float64{}, map[string]uint64{}
	for k := callKind(0); k < numKinds; k++ {
		calls[kindNames[k]] = tr.count[k]
		if k != kindWork {
			inside[kindNames[k]] = float64(tr.insideNs[k]) / 1e9
		}
	}
	rec.Detail = map[string]any{
		"rounds":                rounds,
		"untraced_round_s":      untracedRounds,
		"traced_round_s":        tracedRounds,
		"profile_stacks":        len(profile.samples),
		"profile_sampled_cpu_s": float64(win.sampledNs) / 1e9,
		"process_cpu_s":         float64(win.procNs) / 1e9,
		"charges_s":             chargesSeconds(profile),
		"span_inside_s":         inside,
		"span_calls":            calls,
		"span_workload_s":       float64(tr.workloadNs) / 1e9,
		"span_switch_s":         float64(tr.switchNs) / 1e9,
		"span_edge_s":           float64(tr.edgeNs) / 1e9,
		"span_points_s":         float64(tr.pointNs) / 1e9,
		"spans_kept":            len(tr.spans),
		"setup_s_repetitions":   b.setups,
		"bases": map[string]string{
			"<layer>.self_frac":       "process CPU time charged to the layer by its share of profile samples / trace.wall_s (the traced passes' wall time)",
			"trace.unattributed_frac": "1 - (layers + harness + other + runtime.background) / trace.wall_s; negative when runtime threads outside the one P added CPU time beside the simulation",
			"trace.overhead_frac":     "median traced round / median untraced round - 1, rounds interleaved",
			"obs.overhead_frac":       "median observed point / median same point with obs off - 1, interleaved",
			"runtime.gc_cpu_frac":     "runtime/metrics GC CPU / non-idle CPU over the traced passes",
		},
	}
	if err := writeSpans(b.opt.out, b.opt.workload, b.opt.seed, tr.spans); err != nil {
		logf("%v", err)
		b.failed++
	}
	rec.Correct, rec.Attempted, rec.Failed = b.failed == 0, b.attempted, b.failed
	return rec
}

func chargesSeconds(p *cpuProfile) map[string]float64 {
	out := map[string]float64{}
	for k, v := range chargeLayers(p) {
		out[k] = float64(v) / 1e9
	}
	return out
}

// layerMetrics derives the profile-based per-layer metrics. Fractions are
// of the traced wall time; the *_ns metrics divide sampled inclusive time
// by the exact counts the simulation reported.
func layerMetrics(p *cpuProfile, tl tally, wallNs float64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	charges := chargeLayers(p)
	sum := 0.0
	for _, l := range append(append([]string(nil), layers...), chargeHarness, chargeOther) {
		f := ratio(float64(charges[l]), wallNs)
		set(l+".self_frac", f, "ratio")
		sum += f
	}
	bg := ratio(float64(charges[chargeBackground]), wallNs)
	set("runtime.background_frac", bg, "ratio")
	set("trace.unattributed_frac", 1-sum-bg, "ratio")
	set("runtime.malloc_frac", ratio(float64(inclusiveNs(p, 1, "runtime.mallocgc")), float64(p.totalNs())), "ratio")

	ns := func(t int64, n uint64) float64 { return ratio(float64(t), float64(n)) }
	const (
		cachePkg = "xmem/internal/cache."
		corePkg  = "xmem/internal/core."
	)
	set("core.map_ns", ns(inclusiveNs(p, 1, corePkg+"(*Lib).AtomMap*"), tl.mapOps), "ns")
	set("core.lookup_ns", ns(inclusiveNs(p, 1, corePkg+"(*AMU).Lookup", corePkg+"(*AMU).LookupAttributes"), tl.lookups), "ns")
	set("core.alb_hit_rate", ratio(float64(tl.lookups-tl.aamAccesses), float64(tl.lookups)), "ratio")
	set("core.lookups_per_access", ratio(float64(tl.lookups), float64(tl.accesses)), "ratio")
	set("cache.l1d_access_ns", ns(inclusiveNs(p, 1, cachePkg+"(*Cache).Access"), tl.l1dAcc), "ns")
	set("cache.l3_access_ns", ns(inclusiveNs(p, 3, cachePkg+"(*Cache).Access"), tl.l3Acc), "ns")
	set("cache.l1d.miss_rate", ratio(float64(tl.l1dMiss), float64(tl.l1dAcc)), "ratio")
	set("cache.l2.miss_rate", ratio(float64(tl.l2Miss), float64(tl.l2Acc)), "ratio")
	set("cache.l3.miss_rate", ratio(float64(tl.l3Miss), float64(tl.l3Acc)), "ratio")
	set("cache.l3.writebacks_per_kaccess", 1000*ratio(float64(tl.l3Writebacks), float64(tl.accesses)), "1/kaccess")
	set("prefetch.ns_per_access", ns(inclusiveNs(p, 1, "xmem/internal/prefetch.*"), tl.accesses), "ns")
	set("prefetch.useful_frac", ratio(float64(tl.pfUseful), float64(tl.pfFills)), "ratio")
	set("dram.access_ns", ns(inclusiveNs(p, 1,
		"xmem/internal/dram.(*Controller).Access",
		"xmem/internal/dram.(*Controller).DrainAll",
		"xmem/internal/mem.(*Future).Force"), tl.dramReqs), "ns")
	set("dram.row_hit_rate", ratio(float64(tl.rowHits), float64(tl.rowAll)), "ratio")
	set("dram.read_latency_cycles", ratio(float64(tl.readLatSum), float64(tl.demandReads)), "cycles")
	set("dram.bus_util", ratio(float64(tl.busBusy), float64(tl.busCycles)), "ratio")
	set("cpu.issue_ns", ns(inclusiveNs(p, 1, "xmem/internal/cpu.(*Core).IssueMem"), tl.accesses), "ns")
	set("cpu.rob_stall_frac", ratio(float64(tl.robStall), float64(tl.coreCycles)), "ratio")
	set("cpu.lsq_stall_frac", ratio(float64(tl.lsqStall), float64(tl.coreCycles)), "ratio")
	set("kernel.translate_ns", ns(inclusiveNs(p, 1, "xmem/internal/kernel.(*AddressSpace).Translate"), tl.accesses), "ns")
	return m
}

// writeSpans writes the kept spans as JSON lines, in the order recorded.
func writeSpans(dir, workloadName string, seed int64, spans []spanRec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workloadName, seed)))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
