// Command perfbench is the repository's benchmark: it runs one named
// workload of simulation points through the simulator's public surface
// (sim.Run / sim.RunMulti with sim.Config, the workload generators and
// sim.Result), checks every point's simulated outputs against committed
// reference fingerprints, and prints host-side metrics by name with their
// units. With -trace 1 it instead makes a traced run that splits host time
// by layer. See README.md for the workloads, the metrics and how to read
// the traced output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload uc1-tiled --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	size     size
	out      string
	gitRev   string
}

func run() int {
	start := time.Now()
	// The simulation is one goroutine at a time (co-runs use the serial
	// scheduler), so one P is all it uses. A second P would only run the
	// garbage collector's idle-time mark workers, whose CPU time follows
	// how long marking happens to last and would land in the timings.
	runtime.GOMAXPROCS(1)
	o := options{size: sizeFull, out: filepath.Join(".bench_build", "perfbench", "out")}
	var writeRef string
	flag.StringVar(&o.workload, "workload", "", "workload to run: uc1-tiled, uc2-placement, corun8 or uc1-observed")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed (sets AllocSeed and the span sampling phase)")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 makes the traced run that prints the per-layer metrics")
	flag.StringVar(&o.gitRev, "git-rev", "unknown", "git revision of the measured source, for provenance")
	flag.StringVar(&writeRef, "write-reference", "", "record reference fingerprints to this file and exit")
	flag.Parse()

	if writeRef != "" {
		if err := writeReference(writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{opt: o, spec: w, chk: newChecker(ref, o.seed, logf), heap: newHeapCounters()}
	b.setup(start)
	var rec record
	if o.trace == 1 {
		rec = b.traced()
	} else {
		rec = b.measure()
	}
	rec.Provenance = b.provenance()
	if err := rec.write(o.out, o.workload, o.seed, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return rec.print()
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// bench is one benchmark process: a workload, its points and their checks.
type bench struct {
	opt  options
	spec workloadSpec
	chk  *checker
	heap *heapCounters
	pts  []point

	attempted, failed int
	setups            []float64
	infos             []pointInfo
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// setup builds the point list and runs the untimed warm-up (every point
// once at the tiny size, through the fingerprint check). It repeats
// setupReps times; the first repetition counts from process start.
func (b *bench) setup(start time.Time) {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		b.pts = b.spec.points(b.opt.seed, b.opt.size)
		for _, p := range b.spec.points(b.opt.seed, sizeTiny) {
			b.runChecked(refKey(b.spec.name, sizeTiny, p.name), p, nil)
		}
		b.setups = append(b.setups, time.Since(t0).Seconds())
	}
}

// timing is the host cost of one simulation: wall time, process CPU
// time, heap allocation and peak resident set, taken around the
// sim.Run/RunMulti call alone.
type timing struct {
	secs, cpuSecs  float64
	objects, bytes uint64
	rssMiB         float64
}

// runChecked runs one point, timed, and counts it as attempted, and as
// failed when it errors or its fingerprint differs from the one recorded
// under key. With a tracer, the point runs through the tracing wrapper
// and its span covers the same window as the timing.
func (b *bench) runChecked(key string, p point, tr *tracer) (outcome, timing, bool) {
	b.attempted++
	ws := p.ws
	if tr != nil {
		ws = tr.wrap(ws)
	}
	// Every point starts from a collected heap handed back to the OS, so
	// it neither pays for the previous point's garbage nor inherits its
	// resident pages, and the peak resident set is the point's own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		logf("%v", err)
		b.failed++
		return outcome{}, timing{}, false
	}
	o0, b0 := b.heap.read()
	if tr != nil {
		tr.beginPoint()
	}
	c0 := processCPU()
	t0 := time.Now()
	o, err := p.run(ws)
	t := timing{secs: time.Since(t0).Seconds(), cpuSecs: float64(processCPU()-c0) / 1e9}
	if tr != nil {
		tr.endPoint(p.name)
	}
	o1, b1 := b.heap.read()
	t.objects, t.bytes = o1-o0, b1-b0
	if err == nil {
		t.rssMiB, err = peakRSSMiB()
	}
	if err != nil {
		logf("%v", err)
		b.failed++
		return o, t, false
	}
	if !b.chk.check(key, o.counters()) {
		b.failed++
		return o, t, false
	}
	return o, t, true
}

// heapCounters reads the cumulative heap allocation counters without
// stopping the world.
type heapCounters struct {
	samples []metrics.Sample
}

func newHeapCounters() *heapCounters {
	return &heapCounters{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

func (h *heapCounters) read() (objects, bytes uint64) {
	metrics.Read(h.samples)
	return h.samples[0].Value.Uint64(), h.samples[1].Value.Uint64()
}

// measure is the untraced run: rounds over the point list until the
// measured phase has lasted opt.seconds, with a yardstick pass before
// every point. access_per_yardstick is the accesses of one round times
// the yardstick's fastest CPU time, over the sum of the points' fastest
// CPU times: simulated accesses per yardstick time. The allocation
// metrics take the points' medians, which repeat almost exactly.
//
// On a shared host the same deterministic point's CPU time swings by up
// to 2x while other tenants load the memory system: in bursts of seconds,
// which the fastest repetition of a run steps around, and in levels that
// drift over minutes, which the yardstick, run in the same moments and
// slowed by the same load, divides out. CPU time, not wall time, because
// time the hypervisor gives the vCPU to someone else is not the
// program's.
func (b *bench) measure() record {
	// Per point: wall and CPU seconds, heap objects and heap bytes of
	// each run.
	secs := make([][]float64, len(b.pts))
	cpuSecs := make([][]float64, len(b.pts))
	objects := make([][]float64, len(b.pts))
	bytes := make([][]float64, len(b.pts))
	rss := make([][]float64, len(b.pts))
	accesses := make([]uint64, len(b.pts))
	var yard []float64
	limit := time.Duration(b.opt.seconds) * time.Second
	phase := time.Now()
	rounds := 0
	// The first round always completes, so every point has a time; later
	// rounds stop at the first point boundary past the limit.
	for ; rounds == 0 || time.Since(phase) < limit; rounds++ {
		for i, p := range b.pts {
			if rounds > 0 && time.Since(phase) >= limit {
				break
			}
			yard = append(yard, yardstick())
			o, t, ok := b.runChecked(refKey(b.spec.name, b.opt.size, p.name), p, nil)
			if !ok {
				continue
			}
			secs[i] = append(secs[i], t.secs)
			cpuSecs[i] = append(cpuSecs[i], t.cpuSecs)
			objects[i] = append(objects[i], float64(t.objects))
			bytes[i] = append(bytes[i], float64(t.bytes))
			rss[i] = append(rss[i], t.rssMiB)
			accesses[i] = o.accesses()
			if rounds == 0 {
				b.infos = append(b.infos, pointInfo{Name: p.name, Accesses: o.accesses(), Fingerprint: hashCounters(o.counters())})
			}
		}
	}
	// Each rate is one round's worth: the sum over points of the point's
	// fastest CPU time or median allocation, over the round's accesses.
	// The peak resident set is that of the hungriest point at its
	// leanest repetition: whether the Go runtime must zero a large block
	// it reuses (touching every page of it) depends on the heap's layout
	// history, which adds tens of MiB to some repetitions of a point and
	// not others.
	var acc uint64
	var roundCPU, roundWall, roundObjects, roundBytes, peakRSS float64
	wallPerPoint, cpuPerPoint, rssPerPoint := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for i, ts := range cpuSecs {
		if len(ts) == 0 {
			continue
		}
		acc += accesses[i]
		roundCPU += slices.Min(ts)
		roundWall += median(secs[i])
		roundObjects += median(objects[i])
		roundBytes += median(bytes[i])
		peakRSS = max(peakRSS, slices.Min(rss[i]))
		wallPerPoint[b.pts[i].name] = secs[i]
		cpuPerPoint[b.pts[i].name] = ts
		rssPerPoint[b.pts[i].name] = rss[i]
	}
	rec := record{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metric{},
		Detail: map[string]any{
			"rounds":            rounds,
			"point_cpu_s":       cpuPerPoint,
			"point_wall_s":      wallPerPoint,
			"point_peak_rss_mb": rssPerPoint,
			"round_accesses":    acc,
			// The wall-clock view over the points' median times: what
			// a user saw on this host during this run, noise included.
			"access_per_median_wall_s": ratio(float64(acc), roundWall),
			"setup_s_repetitions":      b.setups,
		},
	}
	rec.Detail["access_per_cpu_s"] = ratio(float64(acc), roundCPU)
	rec.Detail["yardstick_cpu_s"] = yard
	rec.set("access_per_yardstick", ratio(float64(acc)*slices.Min(yard), roundCPU), "count")
	rec.set("allocs_per_access", ratio(roundObjects, float64(acc)), "count")
	rec.set("alloc_bytes_per_access", ratio(roundBytes, float64(acc)), "B")
	rec.set("max_rss_mb", peakRSS, "MB")
	rec.set("setup_s", median(b.setups), "s")
	return rec
}

// resetPeakRSS sets the process's resident-set high-water mark (VmHWM)
// back to its current resident set.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMiB is the process's resident-set high-water mark in MiB since
// the last resetPeakRSS: VmHWM from /proc/self/status. getrusage's
// ru_maxrss is not used because it cannot be reset and also carries the
// launcher's peak when the launcher spawned the process with vfork.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pointInfo is one point's provenance: its name, simulated access count
// and output fingerprint.
type pointInfo struct {
	Name        string `json:"name"`
	Accesses    uint64 `json:"accesses"`
	Fingerprint string `json:"fingerprint"`
}

// record is everything one run reports. The result line carries only the
// first four fields; the run record file carries all of them.
type record struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Detail     map[string]any    `json:"detail,omitempty"`
	Provenance *provenance       `json:"provenance,omitempty"`
}

func (r *record) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// write stores the full run record under dir.
func (r record) write(dir, workload string, seed int64, trace int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("run record: %w", err)
	}
	return nil
}

// print writes the provenance and detail lines, then the result line, and
// returns the exit code.
func (r record) print() int {
	for _, part := range []struct {
		key string
		v   any
	}{{"provenance", r.Provenance}, {"detail", r.Detail}} {
		line, err := json.Marshal(map[string]any{part.key: part.v})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// provenance identifies the measured source, host and inputs.
type provenance struct {
	GitRev       string      `json:"git_rev"`
	SourceDigest string      `json:"source_sha256"`
	GoVersion    string      `json:"go_version"`
	GOMAXPROCS   int         `json:"gomaxprocs"`
	NumCPU       int         `json:"nproc"`
	CPUModel     string      `json:"cpu_model"`
	Workload     string      `json:"workload"`
	Seed         int64       `json:"seed"`
	Seconds      int         `json:"seconds"`
	Size         size        `json:"size"`
	Trace        int         `json:"trace"`
	Points       []pointInfo `json:"points"`
}

func (b *bench) provenance() *provenance {
	return &provenance{
		GitRev:       b.opt.gitRev,
		SourceDigest: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		CPUModel:     cpuModel(),
		Workload:     b.opt.workload,
		Seed:         b.opt.seed,
		Seconds:      b.opt.seconds,
		Size:         b.opt.size,
		Trace:        b.opt.trace,
		Points:       b.infos,
	}
}
