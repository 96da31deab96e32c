package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// flatten records every exported numeric field reachable from v through
// structs and slices, keyed by its dotted path ("L3.ReadMisses",
// "Cores.3.DRAM.RowHits"). Pointers, strings and maps are not counters and
// are skipped, so the observability reports hanging off a Result do not
// enter the fingerprint.
func flatten(prefix string, v any, out map[string]string) {
	flattenValue(prefix, reflect.ValueOf(v), out)
}

func flattenValue(prefix string, v reflect.Value, out map[string]string) {
	join := func(name string) string {
		if prefix == "" {
			return name
		}
		return prefix + "." + name
	}
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				flattenValue(join(f.Name), v.Field(i), out)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			flattenValue(join(strconv.Itoa(i)), v.Index(i), out)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out[prefix] = strconv.FormatUint(v.Uint(), 10)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out[prefix] = strconv.FormatInt(v.Int(), 10)
	case reflect.Float32, reflect.Float64:
		out[prefix] = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.Bool:
		out[prefix] = strconv.FormatBool(v.Bool())
	}
}

// hashCounters is a short digest of a fingerprint, for logs and provenance.
func hashCounters(c map[string]string) string {
	keys := sortedKeys(c)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, c[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sortedKeys(c map[string]string) []string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// diffCounters lists the reference counters that got differs on. Counters
// present only in got (added to the simulator after the reference was
// recorded) are not compared; a reference counter missing from got is a
// difference.
func diffCounters(ref, got map[string]string) []string {
	var diffs []string
	for _, k := range sortedKeys(ref) {
		g, ok := got[k]
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s: missing (want %s)", k, ref[k]))
		case g != ref[k]:
			diffs = append(diffs, fmt.Sprintf("%s: got %s, want %s", k, g, ref[k]))
		}
	}
	return diffs
}

// defaultSeed is the seed the committed reference fingerprints were
// recorded at.
const defaultSeed = 1

// referenceFile is the committed reference: the fingerprint of every point
// of every workload, at both sizes, at defaultSeed.
type referenceFile struct {
	Seed   int64                     `json:"seed"`
	Points map[string]referencePoint `json:"points"`
}

type referencePoint struct {
	// SeedIndependent marks points whose outputs do not depend on the
	// seed (no randomized placement); they are checked at every seed.
	SeedIndependent bool              `json:"seed_independent"`
	Hash            string            `json:"hash"`
	Counters        map[string]string `json:"counters"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// refKey names a point in the reference file.
func refKey(workloadName string, sz size, pointName string) string {
	return workloadName + "/" + string(sz) + "/" + pointName
}

// checker decides whether each point's simulated outputs are correct: they
// must match the committed reference where it applies and every earlier
// run of the same point in this process.
type checker struct {
	ref   referenceFile
	seed  int64
	first map[string]map[string]string
	// log receives one line per disagreement.
	log func(format string, args ...any)
}

func newChecker(ref referenceFile, seed int64, log func(string, ...any)) *checker {
	return &checker{ref: ref, seed: seed, first: map[string]map[string]string{}, log: log}
}

// check returns whether the outcome of the point named key is correct.
func (c *checker) check(key string, got map[string]string) bool {
	ok := true
	if rp, found := c.ref.Points[key]; found && (rp.SeedIndependent || c.seed == c.ref.Seed) {
		if d := diffCounters(rp.Counters, got); len(d) > 0 {
			c.log("%s: %d counters differ from the reference: %s", key, len(d), describeDiffs(d))
			ok = false
		}
	} else if !found {
		c.log("%s: no reference fingerprint", key)
		ok = false
	}
	if prev, seen := c.first[key]; seen {
		if d := diffCounters(prev, got); len(d) > 0 {
			c.log("%s: %d counters differ from this run's first repeat: %s", key, len(d), describeDiffs(d))
			ok = false
		}
	} else {
		c.first[key] = got
	}
	return ok
}

// writeReference records the fingerprints of every point of every
// workload at both sizes at defaultSeed, marking the points whose outputs
// are the same at a second seed as seed-independent.
func writeReference(path string) error {
	ref := referenceFile{Seed: defaultSeed, Points: map[string]referencePoint{}}
	for _, w := range workloads {
		for _, sz := range []size{sizeTiny, sizeFull} {
			pts := w.points(defaultSeed, sz)
			other := w.points(defaultSeed+1, sz)
			for i, p := range pts {
				o, err := p.run(p.ws)
				if err != nil {
					return err
				}
				o2, err := other[i].run(other[i].ws)
				if err != nil {
					return err
				}
				c := o.counters()
				ref.Points[refKey(w.name, sz, p.name)] = referencePoint{
					SeedIndependent: len(diffCounters(c, o2.counters())) == 0,
					Hash:            hashCounters(c),
					Counters:        c,
				}
				fmt.Fprintf(os.Stderr, "reference %s %s\n", refKey(w.name, sz, p.name), hashCounters(c))
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// describeDiffs shortens a diff list for a log line.
func describeDiffs(d []string) string {
	if len(d) > 3 {
		return strings.Join(d[:3], "; ") + fmt.Sprintf("; ... %d more", len(d)-3)
	}
	return strings.Join(d, "; ")
}
