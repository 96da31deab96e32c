package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "re-record testdata/cpu.pb.gz from a tiny traced run")

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyBench(t *testing.T, name string, seed int64) *bench {
	t.Helper()
	spec, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	return &bench{
		opt:  options{workload: name, seed: seed, seconds: 1, size: sizeTiny, out: t.TempDir()},
		spec: spec,
		chk:  newChecker(ref, seed, t.Logf),
		heap: newHeapCounters(),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSchema checks that every metric BENCHMARK.json names is printed by
// the matching run, under a valid name, with the declared unit, and that
// every workload it names exists.
func TestSchema(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	b := tinyBench(t, "uc1-observed", defaultSeed)
	b.setup(time.Now())
	runs := []struct {
		mode    string
		rec     record
		metrics []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{
		{"untraced", b.measure(), bf.EndToEnd},
		{"traced", b.traced(), bf.PerLayer},
	}
	for _, r := range runs {
		if !r.rec.Correct || r.rec.Failed != 0 || r.rec.Attempted < 1 {
			t.Errorf("%s run: correct=%v attempted=%d failed=%d", r.mode, r.rec.Correct, r.rec.Attempted, r.rec.Failed)
		}
		for _, m := range r.metrics {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
			got, ok := r.rec.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s run does not print %s", r.mode, m.Name)
			case got.Unit == "" || got.Unit != m.Unit:
				t.Errorf("%s: printed unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
		for name := range r.rec.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("printed metric name %q does not match %s", name, nameRE)
			}
		}
	}
}

// TestSmoke runs every workload's points at the tiny size through the
// fingerprint check, at the reference seed and at another one.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 7} {
			b := tinyBench(t, w.name, seed)
			for _, p := range w.points(seed, sizeTiny) {
				o, _, ok := b.runChecked(refKey(w.name, sizeTiny, p.name), p, nil)
				if !ok {
					t.Errorf("%s seed %d: %s failed the fingerprint check", w.name, seed, p.name)
				}
				if o.accesses() == 0 {
					t.Errorf("%s: %s simulated no accesses", w.name, p.name)
				}
			}
		}
	}
}

// TestCheckerCatchesDifference makes sure a changed counter fails the
// reference and the repeat check.
func TestCheckerCatchesDifference(t *testing.T) {
	ref := referenceFile{Seed: 1, Points: map[string]referencePoint{
		"w/tiny/p": {SeedIndependent: true, Counters: map[string]string{"Cycles": "10", "L3.Hits": "4"}},
	}}
	c := newChecker(ref, 5, t.Logf)
	if !c.check("w/tiny/p", map[string]string{"Cycles": "10", "L3.Hits": "4", "New": "1"}) {
		t.Fatal("matching fingerprint with an extra counter rejected")
	}
	if c.check("w/tiny/p", map[string]string{"Cycles": "11", "L3.Hits": "4"}) {
		t.Fatal("changed counter accepted")
	}
	if c.check("w/tiny/p", map[string]string{"Cycles": "10"}) {
		t.Fatal("missing counter accepted")
	}
	if c.check("w/tiny/unknown", map[string]string{"Cycles": "10"}) {
		t.Fatal("point without a reference accepted")
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(x uint64) {
	for x >= 0x80 {
		b.WriteByte(byte(x) | 0x80)
		x >>= 7
	}
	b.WriteByte(byte(x))
}

func (b *pb) uint(field int, x uint64) {
	b.varint(uint64(field)<<3 | 0)
	b.varint(x)
}

func (b *pb) bytes(field int, data []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(data)))
	b.Write(data)
}

func (b *pb) packed(field int, xs ...uint64) {
	var inner pb
	for _, x := range xs {
		inner.varint(x)
	}
	b.bytes(field, inner.Bytes())
}

// syntheticProfile encodes a profile with known stacks: functions 1..n
// named by funcs, one location per function except location 100, which
// inlines cache.recordHit into cache.(*Cache).Access.
func syntheticProfile(t *testing.T, funcs []string, samples [][]uint64, ns []uint64, gzipped bool) []byte {
	t.Helper()
	var p pb
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	for _, st := range []struct{ typ, unit uint64 }{{1, 2}, {3, 4}} {
		var vt pb
		vt.uint(valueTypeType, st.typ)
		vt.uint(valueTypeUnit, st.unit)
		p.bytes(profSampleType, vt.Bytes())
	}
	for i, locs := range samples {
		var s pb
		if i%2 == 0 {
			s.packed(sampleLocationID, locs...)
			s.packed(sampleValue, 1, ns[i])
		} else {
			for _, l := range locs {
				s.uint(sampleLocationID, l)
			}
			s.uint(sampleValue, 1)
			s.uint(sampleValue, ns[i])
		}
		p.bytes(profSample, s.Bytes())
	}
	addLoc := func(id uint64, fnIDs ...uint64) {
		var l pb
		l.uint(locationID, id)
		for _, f := range fnIDs {
			var ln pb
			ln.uint(lineFunctionID, f)
			ln.uint(2, 42)
			l.bytes(locationLine, ln.Bytes())
		}
		p.bytes(profLocation, l.Bytes())
	}
	for i := range funcs {
		addLoc(uint64(i+1), uint64(i+1))
		var f pb
		f.uint(functionID, uint64(i+1))
		f.uint(functionName, uint64(5+i))
		p.bytes(profFunction, f.Bytes())
	}
	addLoc(100, 6, 2) // recordHit inlined into Cache.Access
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	p.uint(12, 10000000) // period, ignored
	if !gzipped {
		return p.Bytes()
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.Bytes())
	zw.Close()
	return z.Bytes()
}

// TestProfileDecoderAndCharging decodes a hand-built profile and checks
// the charging rule: the innermost module frame decides, runtime helpers
// count to their caller, samples with no module frame are background, and
// the inclusive matchers count nesting depth.
func TestProfileDecoderAndCharging(t *testing.T) {
	funcs := []string{
		"runtime.mallocgc",                       // 1
		"xmem/internal/cache.(*Cache).Access",    // 2
		"xmem/internal/cpu.(*Core).IssueMem",     // 3
		"runtime.gcBgMarkWorker",                 // 4
		"main.(*tracedProgram).Load",             // 5
		"xmem/internal/cache.(*Cache).recordHit", // 6
		"xmem/internal/obs/span.(*Tracer).Take",  // 7
		"xmem/internal/numa.(*Memory).Access",    // 8
		"xmem/internal/workload.Gemm.func2",      // 9
	}
	samples := [][]uint64{
		{1, 2, 3, 5, 9}, // malloc under Cache.Access: cache
		{4},             // GC worker: background
		{2, 2, 2, 3},    // three nested Cache.Access: cache, depth 3
		{100, 3},        // inlined recordHit in Cache.Access: cache
		{7, 3},          // obs/span subpackage: obs
		{8},             // numa is not a layer: other
		{5, 9},          // harness wrapper called by the workload
		{1, 9},          // malloc from the workload
	}
	ns := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	for _, gz := range []bool{false, true} {
		p, err := parseCPUProfile(syntheticProfile(t, funcs, samples, ns, gz))
		if err != nil {
			t.Fatal(err)
		}
		if len(p.samples) != len(samples) || p.totalNs() != 360 {
			t.Fatalf("decoded %d samples, %d ns; want %d, 360", len(p.samples), p.totalNs(), len(samples))
		}
		if got := p.samples[3].frames; len(got) != 3 || got[0] != funcs[5] || got[1] != funcs[1] || got[2] != funcs[2] {
			t.Fatalf("inlined location expanded to %v", got)
		}
		want := map[string]int64{
			"cache": 10 + 30 + 40, "runtime.background": 20, "obs": 50,
			"other": 60, "harness": 70, "workload": 80,
		}
		got := chargeLayers(p)
		for k, v := range want {
			if got[k] != v {
				t.Errorf("charge %s = %d, want %d (all: %v)", k, got[k], v, got)
			}
		}
		if len(got) != len(want) {
			t.Errorf("unexpected charges: %v", got)
		}
		if n := inclusiveNs(p, 1, "xmem/internal/cache.(*Cache).Access"); n != 10+30+40 {
			t.Errorf("inclusive Cache.Access = %d, want 80", n)
		}
		if n := inclusiveNs(p, 3, "xmem/internal/cache.(*Cache).Access"); n != 30 {
			t.Errorf("third nested Cache.Access = %d, want 30", n)
		}
		if n := inclusiveNs(p, 1, "runtime.mallocgc"); n != 90 {
			t.Errorf("mallocgc = %d, want 90", n)
		}
		if n := inclusiveNs(p, 1, "xmem/internal/cache.*"); n != 80 {
			t.Errorf("cache prefix = %d, want 80", n)
		}
		p.scaleTo(720)
		if p.totalNs() != 720 {
			t.Errorf("scaled total %d, want 720", p.totalNs())
		}
	}
}

// TestRecordedProfile decodes a CPU profile recorded by runtime/pprof
// from a tiny traced run and checks that every sample is charged and the
// hot layers appear.
func TestRecordedProfile(t *testing.T) {
	path := filepath.Join("testdata", "cpu.pb.gz")
	if *update {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Fatal(err)
		}
		for _, p := range uc1TiledPoints(defaultSeed, sizeTiny) {
			if _, err := p.run(p.ws); err != nil {
				t.Fatal(err)
			}
		}
		pprof.StopCPUProfile()
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 || p.totalNs() <= 0 {
		t.Fatalf("recorded profile decoded to %d samples, %d ns", len(p.samples), p.totalNs())
	}
	var sum int64
	charges := chargeLayers(p)
	for _, v := range charges {
		sum += v
	}
	if sum != p.totalNs() {
		t.Errorf("charges sum to %d ns of %d", sum, p.totalNs())
	}
	for _, l := range []string{"cache", "cpu"} {
		if charges[l] == 0 {
			t.Errorf("no samples charged to %s: %v", l, charges)
		}
	}
}

// TestFlatten checks the fingerprint walks nested structs and slices and
// skips pointers and strings.
func TestFlatten(t *testing.T) {
	type inner struct {
		Hits  uint64
		Rate  float64
		name  uint64
		Label string
	}
	type outer struct {
		Cycles uint64
		L3     inner
		Cores  []inner
		Report *inner
	}
	got := map[string]string{}
	flatten("", outer{Cycles: 7, L3: inner{Hits: 3, Rate: 0.5}, Cores: []inner{{Hits: 1}}, Report: &inner{Hits: 9}}, got)
	want := map[string]string{"Cycles": "7", "L3.Hits": "3", "L3.Rate": "0.5", "Cores.0.Hits": "1", "Cores.0.Rate": "0"}
	if len(got) != len(want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %q, want %q", k, got[k], v)
		}
	}
}

// TestTracedPredictions makes tiny traced runs and checks the structural
// predictions: no quantum handoffs and no AMU lookups on the placement
// workload, handoffs on the co-run, no trace mismatches, and layer shares
// that sum to one with the remainder.
func TestTracedPredictions(t *testing.T) {
	for _, tc := range []struct {
		workload string
		check    func(m map[string]metric) string
	}{
		{"uc2-placement", func(m map[string]metric) string {
			if m["core.lookups_per_access"].Value != 0 || m["sim.switches"].Value != 0 {
				return "want 0 lookups and 0 switches"
			}
			return ""
		}},
		{"corun8", func(m map[string]metric) string {
			if m["sim.switches"].Value == 0 || m["sim.switch_ns"].Value <= 0 {
				return "want quantum handoffs"
			}
			return ""
		}},
	} {
		b := tinyBench(t, tc.workload, 3)
		b.setup(time.Now())
		rec := b.traced()
		if !rec.Correct || rec.Failed != 0 || rec.Metrics["trace.mismatches"].Value != 0 {
			t.Errorf("%s: correct=%v failed=%d mismatches=%v", tc.workload, rec.Correct, rec.Failed, rec.Metrics["trace.mismatches"].Value)
		}
		if msg := tc.check(rec.Metrics); msg != "" {
			t.Errorf("%s: %s: %v", tc.workload, msg, rec.Metrics)
		}
		sum := rec.Metrics["runtime.background_frac"].Value + rec.Metrics["trace.unattributed_frac"].Value
		for _, l := range append(append([]string(nil), layers...), chargeHarness, chargeOther) {
			sum += rec.Metrics[l+".self_frac"].Value
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: layer shares sum to %v", tc.workload, sum)
		}
	}
}
