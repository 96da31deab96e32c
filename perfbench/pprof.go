package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with the standard library alone, and charges their
// samples to the repository's layers.

// cpuProfile is a decoded CPU profile: one stack per sample, innermost
// frame first, with inlined calls expanded into frames of their own.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	frames []string
	// ns is the sample's CPU time.
	ns int64
}

// totalNs is the CPU time of all samples.
func (p *cpuProfile) totalNs() int64 {
	var t int64
	for _, s := range p.samples {
		t += s.ns
	}
	return t
}

// scaleTo rescales every sample so the total is ns. The profiler's
// interval timer can fire less often than asked on a coarse kernel tick,
// so the samples give each stack's share and the process's measured CPU
// time gives the total.
func (p *cpuProfile) scaleTo(ns int64) {
	total := p.totalNs()
	if total == 0 || ns <= 0 {
		return
	}
	f := float64(ns) / float64(total)
	for i := range p.samples {
		p.samples[i].ns = int64(float64(p.samples[i].ns) * f)
	}
}

// Field numbers of profile.proto
// (github.com/google/pprof/proto/profile.proto).
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	valueTypeType = 1
	valueTypeUnit = 2

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID   = 1
	functionName = 2
)

// parseCPUProfile decodes a gzipped or plain profile.proto CPU profile.
// Each sample is charged the value of its "cpu" sample type (nanoseconds).
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs       []string
		types      [][2]int64 // (type, unit) string indexes
		raw        []rawSample
		locFuncs   = map[uint64][]uint64{}
		funcNameIx = map[uint64]int64{}
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profStringTable:
			strs = append(strs, string(b))
		case profSampleType:
			var t [2]int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case valueTypeType:
					t[0] = int64(v)
				case valueTypeUnit:
					t[1] = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case profSample:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendUvarints(&s.locs, wire, v, b)
				case sampleValue:
					var vs []uint64
					if err := appendUvarints(&vs, wire, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == lineFunctionID {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcNameIx[id] = name
			return err
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpuIx := -1
	for i, t := range types {
		if str(t[0]) == "cpu" {
			cpuIx = i
		}
	}
	if cpuIx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range raw {
		if cpuIx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		cs := cpuSample{ns: s.values[cpuIx]}
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined call
			// out to the function it was inlined into.
			for _, f := range locFuncs[loc] {
				cs.frames = append(cs.frames, str(funcNameIx[f]))
			}
		}
		p.samples = append(p.samples, cs)
	}
	return p, nil
}

// eachField calls f for every field of one protobuf message: v carries a
// varint or fixed-width value, b a length-delimited payload.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated integer field given either unpacked
// (one varint) or packed (a length-delimited run of varints).
func appendUvarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers are the repository's modules, in report order. Each is charged
// the samples whose innermost xmem/internal frame lies in its package
// tree.
var layers = []string{"workload", "sim", "cpu", "cache", "prefetch", "core", "dram", "kernel", "mem", "obs"}

const (
	// chargeBackground takes samples with no frame of this module: GC
	// workers, the scheduler, the profiler itself.
	chargeBackground = "runtime.background"
	// chargeHarness takes samples whose innermost module frame is the
	// benchmark's own code (the traced wrappers, fingerprinting).
	chargeHarness = "harness"
	// chargeOther takes module packages outside the layer list.
	chargeOther = "other"
)

const internalPrefix = "xmem/internal/"

// layerOf charges one sample: its innermost frame that belongs to this
// module decides, so runtime helpers (malloc, write barriers, map access)
// count to the code that called them.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if strings.HasPrefix(fn, internalPrefix) {
			pkg := fn[len(internalPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return chargeOther
		}
		if strings.HasPrefix(fn, "main.") {
			return chargeHarness
		}
	}
	return chargeBackground
}

// chargeLayers sums CPU time per charge.
func chargeLayers(p *cpuProfile) map[string]int64 {
	out := map[string]int64{}
	for _, s := range p.samples {
		out[layerOf(s.frames)] += s.ns
	}
	return out
}

// inclusiveNs is the CPU time of samples with at least minDepth frames
// matching one of the function names exactly or, for names ending in "*",
// by prefix. Recursion counts a sample once.
func inclusiveNs(p *cpuProfile, minDepth int, names ...string) int64 {
	var t int64
	for _, s := range p.samples {
		depth := 0
		for _, fn := range s.frames {
			if matchFunc(fn, names) {
				depth++
			}
		}
		if depth >= minDepth {
			t += s.ns
		}
	}
	return t
}

func matchFunc(fn string, names []string) bool {
	for _, n := range names {
		if strings.HasSuffix(n, "*") {
			if strings.HasPrefix(fn, n[:len(n)-1]) {
				return true
			}
		} else if fn == n {
			return true
		}
	}
	return false
}
