package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	xm "xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/obs/span"
	"xmem/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the metrics and span golden files")

// goldenWorkload reaches every hierarchy event the observability layer
// consumes on a 64 KiB L3. A high-reuse Regular atom larger than the L3 is
// pinned (pin inserts, then denied pins or pinned evictions once its sets
// fill) and run ahead by the XMem prefetcher (useful prefetches that land
// early, delayed hits on ones that do not). A no-reuse Regular stream is
// inserted at low priority, and an unannotated scattered buffer adds DRAM
// row misses next to the streams' row hits.
func goldenWorkload() workload.Workload {
	hotAttrs := xm.Attributes{Pattern: xm.PatternRegular, StrideBytes: 64, Reuse: 200}
	streamAttrs := xm.Attributes{Pattern: xm.PatternRegular, StrideBytes: 64, Reuse: 0}
	const (
		hotLines    = 1024 // 64 KiB: beyond the 48 KiB pin budget
		streamLines = 1024
		scatterSize = 4 << 20
		rounds      = 2
	)
	return workload.Workload{
		Name: "golden",
		Declare: func(lib *xm.Lib) {
			lib.CreateAtom("golden.hot", hotAttrs)
			lib.CreateAtom("golden.stream", streamAttrs)
		},
		Run: func(p workload.Program) {
			lib := p.Lib()
			hot := lib.CreateAtom("golden.hot", hotAttrs)
			stream := lib.CreateAtom("golden.stream", streamAttrs)
			hb := p.Malloc("hot", hotLines*mem.LineBytes, hot)
			sb := p.Malloc("stream", streamLines*mem.LineBytes, stream)
			xb := p.Malloc("scatter", scatterSize, xm.InvalidAtom)
			lib.AtomMap(hot, hb, hotLines*mem.LineBytes)
			lib.AtomActivate(hot)
			lib.AtomMap(stream, sb, streamLines*mem.LineBytes)
			lib.AtomActivate(stream)
			x := uint64(12345)
			for r := 0; r < rounds; r++ {
				for i := 0; i < hotLines; i++ {
					p.Load(1, hb+mem.Addr(i*mem.LineBytes))
					if i%2 == 0 {
						p.Load(2, sb+mem.Addr(((r*hotLines+i)/2%streamLines)*mem.LineBytes))
					}
					if i%8 == 0 {
						x = x*6364136223846793005 + 1442695040888963407
						p.Store(3, xb+mem.Addr((x>>20)%(scatterSize/mem.LineBytes)*mem.LineBytes))
					}
					p.Work(2)
				}
			}
			lib.AtomDeactivate(stream)
			lib.AtomDeactivate(hot)
		},
	}
}

// goldenConfig is the observed XMem machine of the golden points. With
// pinCap 1 every way of a set may be pinned, so a full set evicts a pinned
// line; at the default 75% cap the same overflow is a denied pin instead.
func goldenConfig(pinCap float64) Config {
	cfg := FastConfig(64 << 10)
	cfg.Geometry.CapacityBytes = 16 << 20
	cfg.XMemCache = true
	cfg.L3.PinCapFraction = pinCap
	cfg.Metrics = true
	cfg.EpochCycles = 50_000
	cfg.SpanSample = 11
	return cfg
}

// TestObservabilityGolden pins the bytes of the metrics JSON and the span
// JSONL that sim.Run emits, on points that reach every cache and DRAM event
// the hooks report. The benchmark fingerprints skip Metrics and Spans, so
// this is the test that proves a refactor of the hooks changes nothing.
// Regenerate with `go test ./internal/sim -run ObservabilityGolden
// -update-golden` only when an output change is intended.
func TestObservabilityGolden(t *testing.T) {
	points := []struct {
		name string
		cfg  Config
	}{
		{"xmem-pincap75", goldenConfig(0)},
		{"xmem-pincap100", goldenConfig(1)},
		{"baseline", func() Config {
			cfg := goldenConfig(0)
			cfg.XMemCache = false
			return cfg
		}()},
	}
	var total cache3Counts
	for _, pt := range points {
		res := MustRun(pt.cfg, goldenWorkload())
		total.add(res)
		checkGolden(t, pt.name+".metrics.json", func(b *bytes.Buffer) error { return res.Metrics.WriteJSON(b) })
		checkGolden(t, pt.name+".spans.jsonl", func(b *bytes.Buffer) error { return res.Spans.WriteJSONL(b) })
	}
	for name, n := range total.counts() {
		if n == 0 {
			t.Errorf("golden points never reach %s", name)
		}
	}
}

// TestObservabilityGoldenMulti pins the per-core metrics and spans of a
// two-core co-run, where L1D/L2/L3 events reach the tracer but DRAM
// commands are not attributed to cores.
func TestObservabilityGoldenMulti(t *testing.T) {
	cfg := goldenConfig(0)
	res := MustRunMulti(MultiConfig{Core: cfg}, []workload.Workload{goldenWorkload(), streamWorkload(512, 2)})
	for i, c := range res.Cores {
		c := c
		name := "multi-core" + string(rune('0'+i))
		checkGolden(t, name+".metrics.json", func(b *bytes.Buffer) error { return c.Metrics.WriteJSON(b) })
		checkGolden(t, name+".spans.jsonl", func(b *bytes.Buffer) error { return c.Spans.WriteJSONL(b) })
	}
}

func checkGolden(t *testing.T, name string, write func(*bytes.Buffer) error) {
	t.Helper()
	var got bytes.Buffer
	if err := write(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from the golden file (%d vs %d bytes); rerun with -update-golden only if the change is intended",
			name, got.Len(), len(want))
	}
}

// cache3Counts sums, over the golden points, each event kind the hooks
// report, both as the modeled counters and as what reached the metrics and
// span outputs, so the goldens cannot silently stop covering one.
type cache3Counts struct {
	demandMiss, delayedHit, useful, pinInsert, pinDenied, pinEvict    uint64
	rowHit, rowMiss                                                   uint64
	leadObs, attrMiss, attrRowHit, attrRowMiss, attrPinEvict, attrUse uint64
	attrIssued, bypassStage, delayedStage, issuedStage, dramStage     uint64
}

func (c *cache3Counts) add(res Result) {
	c.demandMiss += res.L3.Misses
	c.delayedHit += res.L3.DelayedHits
	c.useful += res.L3.PrefetchUseful
	c.pinInsert += res.L3.PinInserts
	c.pinDenied += res.L3.PinDowngrades
	c.pinEvict += res.L3.PinEvictions
	c.rowHit += res.DRAM.RowHits
	c.rowMiss += res.DRAM.RowEmpty + res.DRAM.RowConflicts
	if lat := res.Metrics.Latency; lat != nil {
		for _, h := range lat.Layers {
			if h.Name == "prefetch.xmem.lead" {
				c.leadObs += h.Count
			}
		}
	}
	for _, a := range res.PerAtom {
		c.attrMiss += a.DemandMisses
		c.attrRowHit += a.RowHits
		c.attrRowMiss += a.RowMisses
		c.attrPinEvict += a.PinEvictions
		c.attrUse += a.PrefetchUseful
		c.attrIssued += a.PrefetchIssued
	}
	for _, sp := range res.Spans.Spans {
		for _, st := range sp.Stages {
			switch {
			case st.Reason == span.ReasonBypassStreaming:
				c.bypassStage++
			case st.Outcome == "delayed-hit":
				c.delayedStage++
			case st.Reason == span.ReasonPrefetchIssued:
				c.issuedStage++
			case st.Layer == "dram":
				c.dramStage++
			}
		}
	}
}

func (c *cache3Counts) counts() map[string]uint64 {
	return map[string]uint64{
		"L3 demand misses": c.demandMiss, "L3 delayed hits": c.delayedHit,
		"useful prefetches": c.useful, "pin inserts": c.pinInsert,
		"denied pins": c.pinDenied, "pinned evictions": c.pinEvict,
		"DRAM row hits": c.rowHit, "DRAM row misses": c.rowMiss,
		"prefetch lead observations": c.leadObs,
		"per-atom demand misses":     c.attrMiss, "per-atom row hits": c.attrRowHit,
		"per-atom row misses": c.attrRowMiss, "per-atom pinned evictions": c.attrPinEvict,
		"per-atom useful prefetches": c.attrUse, "per-atom issued prefetches": c.attrIssued,
		"bypass span stages": c.bypassStage, "delayed-hit span stages": c.delayedStage,
		"prefetch-issued span stages": c.issuedStage, "dram span stages": c.dramStage,
	}
}
