package experiments

import (
	"bytes"
	"strings"
	"testing"

	"xmem/internal/experiments/runner"
)

// serial runs a sweep one point at a time with no progress output.
var serial = runner.Options{Parallel: 1}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"mini", "fast", "paper"} {
		p, ok := PresetByName(name)
		if !ok || p.Name != name {
			t.Errorf("PresetByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if p, ok := PresetByName(""); !ok || p.Name != "fast" {
		t.Errorf("empty preset = %+v", p)
	}
	if _, ok := PresetByName("warp"); ok {
		t.Error("unknown preset accepted")
	}
}

func TestGeomeanAndHelpers(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Errorf("geomean = %f", g)
	}
	if g := geomean(nil); g != 1 {
		t.Errorf("empty geomean = %f", g)
	}
	if m := mean([]float64{1, 3}); m != 2 {
		t.Errorf("mean = %f", m)
	}
	if m := maxOf([]float64{1, 3, 2}); m != 3 {
		t.Errorf("max = %f", m)
	}
	if sizeLabel(64) != "64B" || sizeLabel(8<<10) != "8KB" || sizeLabel(2<<20) != "2MB" {
		t.Errorf("size labels: %s %s %s", sizeLabel(64), sizeLabel(8<<10), sizeLabel(2<<20))
	}
}

func TestFig4MiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := Mini()
	res, err := RunFig4Sweep(p, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(p.UC1Kernels)*len(p.UC1Tiles) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	s := res.Summarize()
	// Paper shape: the largest tile thrashes badly on the Baseline and
	// XMem substantially reduces that slowdown.
	if s.LargeTileSlowdownBaseAvg < 0.3 {
		t.Errorf("baseline large-tile slowdown = %.2f; expected severe thrashing", s.LargeTileSlowdownBaseAvg)
	}
	if s.LargeTileSlowdownXMemAvg >= s.LargeTileSlowdownBaseAvg {
		t.Errorf("XMem slowdown %.2f >= baseline %.2f; XMem must mitigate thrashing",
			s.LargeTileSlowdownXMemAvg, s.LargeTileSlowdownBaseAvg)
	}
	// Per-kernel: at the largest tile XMem must win.
	for _, k := range res.Kernels() {
		rows := res.kernelRows(k)
		last := rows[len(rows)-1]
		if last.Speedup() < 1.05 {
			t.Errorf("%s largest tile: XMem speedup %.3f < 1.05", k, last.Speedup())
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("Print output missing header")
	}

	// Figure 5 reuses the sweep.
	f5, err := RunFig5Sweep(p, &res, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) != len(p.UC1Kernels) {
		t.Fatalf("fig5 rows = %d", len(f5.Rows))
	}
	s5 := f5.Summarize()
	if s5.XMemIncreaseAvg >= s5.BaselineIncreaseAvg {
		t.Errorf("portability: XMem +%.1f%% >= baseline +%.1f%%; XMem must be more portable",
			100*s5.XMemIncreaseAvg, 100*s5.BaselineIncreaseAvg)
	}
	buf.Reset()
	f5.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("fig5 print missing header")
	}
}

func TestFig6MiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := Mini()
	p.UC1Kernels = []string{"gemm"}
	res, err := RunFig6Sweep(p, nil, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(DefaultFig6Bandwidths()) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.FullSpeedup() < 1.0 {
			t.Errorf("bw %.1fGB/s: XMem speedup %.3f < 1", row.BandwidthPerSec/1e9, row.FullSpeedup())
		}
		if row.FullSpeedup() < row.PrefSpeedup()*0.98 {
			t.Errorf("bw %.1fGB/s: full XMem (%.3f) worse than prefetch-only (%.3f)",
				row.BandwidthPerSec/1e9, row.FullSpeedup(), row.PrefSpeedup())
		}
	}
	// The gap grows as bandwidth shrinks (§5.4).
	if res.GapAt(0.5e9) <= res.GapAt(2e9) {
		t.Errorf("gap at 0.5GB/s (%.3f) <= gap at 2GB/s (%.3f); want widening under scarcity",
			res.GapAt(0.5e9), res.GapAt(2e9))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("print missing header")
	}
}

func TestFig7MiniShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := Mini()
	res, err := RunFig7Sweep(p, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(p.UC2Workloads) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Fig7Row{}
	for _, row := range res.Rows {
		byName[row.Workload] = row
		// Ideal RBL is an upper bound for row-buffer optimization.
		if row.IdealSpeedup() < 1.0 {
			t.Errorf("%s: ideal speedup %.3f < 1", row.Workload, row.IdealSpeedup())
		}
	}
	// Stream-heavy workloads benefit; random-dominated ones barely move
	// (§6.4: mcf and friends are dominated by random accesses).
	if byName["leslie3d"].XMemSpeedup() < 1.03 {
		t.Errorf("leslie3d speedup = %.3f; stream isolation should help", byName["leslie3d"].XMemSpeedup())
	}
	if byName["mcf"].XMemSpeedup() > byName["leslie3d"].XMemSpeedup() {
		t.Errorf("mcf (%.3f) gained more than leslie3d (%.3f)",
			byName["mcf"].XMemSpeedup(), byName["leslie3d"].XMemSpeedup())
	}
	// Read latency falls with placement on the winners.
	if byName["leslie3d"].NormReadLat() >= 1.0 {
		t.Errorf("leslie3d normalized read latency = %.3f, want < 1", byName["leslie3d"].NormReadLat())
	}
	var buf bytes.Buffer
	res.Print(&buf)
	res.PrintFig8(&buf)
	out := buf.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "Figure 8") {
		t.Error("print output missing headers")
	}
}

func TestALBAndOverheadMini(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	p := Mini()
	alb, err := RunALBSweep(p, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(alb.Points) == 0 {
		t.Fatal("no ALB points")
	}
	prev := -1.0
	for _, pt := range alb.Points {
		if pt.HitRate+0.02 < prev {
			t.Errorf("ALB hit rate fell from %.3f to %.3f at %d entries", prev, pt.HitRate, pt.Entries)
		}
		prev = pt.HitRate
		if pt.Entries == 256 && pt.HitRate < 0.9 {
			t.Errorf("256-entry ALB hit rate = %.3f, want > 0.9 (paper: 98.9%%)", pt.HitRate)
		}
	}

	ov, err := RunOverheadSweep(p, serial)
	if err != nil {
		t.Fatal(err)
	}
	if ov.AAMFraction < 0.0019 || ov.AAMFraction > 0.0021 {
		t.Errorf("AAM fraction = %.4f, want ~0.002 (paper: 0.2%%)", ov.AAMFraction)
	}
	if ov.ASTBytes != 32 {
		t.Errorf("AST = %d B, want 32", ov.ASTBytes)
	}
	if ov.MaxInstructionOverhead() > 0.01 {
		t.Errorf("instruction overhead = %.4f%%, want well under 1%%", 100*ov.MaxInstructionOverhead())
	}
	if len(ov.CtxPoints) != 4 {
		t.Fatalf("ctx points = %d, want 4", len(ov.CtxPoints))
	}
	if ov.CtxPoints[0].Switches != 0 {
		t.Errorf("interval 0 forced %d switches", ov.CtxPoints[0].Switches)
	}
	// More frequent switches flush the ALB more: hit rate must not rise.
	last := ov.CtxPoints[1]
	for _, pt := range ov.CtxPoints[2:] {
		if pt.Switches <= last.Switches {
			t.Errorf("switch counts not increasing: %d then %d", last.Switches, pt.Switches)
		}
		if pt.ALBHitRate > last.ALBHitRate+0.01 {
			t.Errorf("ALB hit rate rose with more switches: %.4f -> %.4f", last.ALBHitRate, pt.ALBHitRate)
		}
		last = pt
	}
	var buf bytes.Buffer
	alb.Print(&buf)
	ov.Print(&buf)
	if !strings.Contains(buf.String(), "ALB coverage") || !strings.Contains(buf.String(), "Overhead analysis") {
		t.Error("print output missing headers")
	}
}

func TestTableWriter(t *testing.T) {
	tab := &table{}
	tab.add("name", "value")
	tab.addf("row-one\t%d", 42)
	tab.addf("r2\t%d", 7)
	var buf bytes.Buffer
	tab.write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.HasPrefix(lines[1], "--") {
		t.Errorf("header/rule malformed:\n%s", out)
	}
	// Numeric columns right-align: both values end at the same column.
	if idx42, idx7 := strings.Index(lines[2], "42"), strings.Index(lines[3], "7"); idx42+2 != idx7+1 {
		t.Errorf("values not right-aligned:\n%s", out)
	}
	empty := &table{}
	empty.write(&buf) // must not panic
}

func TestTunedTile(t *testing.T) {
	tiles := []uint64{4 << 10, 64 << 10, 256 << 10, 1 << 20}
	if got := tunedTile(tiles, 256<<10); got != 256<<10 {
		t.Errorf("tuned for 256KB = %d", got)
	}
	if got := tunedTile(tiles, 128<<10); got != 64<<10 {
		t.Errorf("tuned for 128KB = %d", got)
	}
	if got := tunedTile(tiles, 1<<10); got != 4<<10 {
		t.Errorf("tuned below smallest = %d, want the smallest tile", got)
	}
}
