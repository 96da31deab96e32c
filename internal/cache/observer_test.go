package cache

import (
	"math/rand"
	"testing"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// pendingMemory is a backing store whose reads stay in flight until the test
// resolves them, for exercising delayed hits and prefetch lead times.
type pendingMemory struct {
	futures []*mem.Future
}

func (m *pendingMemory) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	if kind == mem.Writeback {
		return mem.Done(at)
	}
	var f *mem.Future
	f = mem.NewFuture(func() { f.Resolve(at + 1000) })
	m.futures = append(m.futures, f)
	return mem.Pending(f)
}

// recordSink installs a sink on c that keeps every event of the given op.
func recordSink(c *Cache, op Op) *[]Event {
	var evs []Event
	c.SetSink(func(ev Event) {
		if ev.Op == op {
			evs = append(evs, ev)
		}
	})
	return &evs
}

func TestSpanObserverHitAndMiss(t *testing.T) {
	c, _ := testCache(t, 4096, 4, "lru")
	evs := recordSink(c, OpAccess)

	c.Access(0x1000, mem.Read, 0, 0x40)
	c.Access(0x1000, mem.Write, 200, 0x44)
	if len(*evs) != 2 {
		t.Fatalf("got %d events, want 2", len(*evs))
	}
	miss, hit := (*evs)[0], (*evs)[1]
	if !miss.Miss || miss.Kind != mem.Read || miss.PA != 0x1000 || miss.PC != 0x40 || miss.At != 0 || miss.Done != 4 {
		t.Errorf("miss event = %+v", miss)
	}
	if miss.Atom != core.InvalidAtom || miss.Pinned || miss.PinDenied || miss.LowPriority {
		t.Errorf("classifier-less miss carries insertion flags: %+v", miss)
	}
	if hit.Miss || hit.Delayed || hit.Pending || hit.Kind != mem.Write || hit.PC != 0x44 || hit.At != 200 || hit.Done != 204 {
		t.Errorf("hit event = %+v", hit)
	}

	// Prefetch probes and writebacks are not demand accesses and stay silent.
	*evs = nil
	c.Access(0x2000, mem.Prefetch, 300, 0)
	c.Access(0x1000, mem.Writeback, 310, 0)
	if len(*evs) != 0 {
		t.Errorf("non-demand kinds fired %d access events", len(*evs))
	}
}

// TestSpanObserverPinOutcomes drives the §5.2 insertion outcomes through one
// set: pinned fills until the 75% cap, then a denied pin, plus a
// low-priority (bypass) fill. The set is full by then, so the bypass fill
// evicts an unpinned line and reports it.
func TestSpanObserverPinOutcomes(t *testing.T) {
	// 256B/4-way = one set; cap = 3 pinned ways.
	c, _ := testCache(t, 256, 4, "lru")
	pin := true
	c.SetClassifier(func(pa mem.Addr, kind mem.AccessKind) Insertion {
		if pin {
			return Insertion{Pin: true, Atom: 7}
		}
		return Insertion{Pri: InsertLow, Atom: 8}
	})
	var evs, evicts []Event
	c.SetSink(func(ev Event) {
		if ev.Op == OpEvict {
			evicts = append(evicts, ev)
		} else {
			evs = append(evs, ev)
		}
	})

	for i := 0; i < 4; i++ {
		c.Access(mem.Addr(i)<<12, mem.Read, uint64(i*10), 0)
	}
	pin = false
	c.Access(0x8000, mem.Read, 100, 0)
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i := 0; i < 3; i++ {
		if !evs[i].Pinned || evs[i].PinDenied || evs[i].Atom != 7 {
			t.Errorf("fill %d = %+v, want pinned", i, evs[i])
		}
	}
	if !evs[3].PinDenied || evs[3].Pinned {
		t.Errorf("capped fill = %+v, want pin denied", evs[3])
	}
	if !evs[4].LowPriority || evs[4].Atom != 8 {
		t.Errorf("bypass fill = %+v, want low priority", evs[4])
	}
	// The only unpinned line (the denied pin at 0x3000) makes room.
	if len(evicts) != 1 || evicts[0].PA != 0x3000 || evicts[0].Pinned || evicts[0].Atom != 7 || evicts[0].At != 100 {
		t.Errorf("evictions = %+v, want the unpinned 0x3000 line", evicts)
	}
}

func TestSpanObserverDelayedHit(t *testing.T) {
	next := &pendingMemory{}
	c := MustNew(Config{Name: "L3", SizeBytes: 4096, Ways: 4, Latency: 4, Policy: "lru"}, next)
	evs := recordSink(c, OpAccess)

	// A prefetch installs the line; its fill stays in flight.
	c.Access(0x1000, mem.Prefetch, 0, 0)
	// A demand read under the in-flight fill: delayed hit, prefetched.
	c.Access(0x1000, mem.Read, 10, 0)
	if len(*evs) != 1 {
		t.Fatalf("got %d events, want 1", len(*evs))
	}
	ev := (*evs)[0]
	if !ev.Delayed || !ev.Pending || ev.Miss || !ev.Prefetched {
		t.Errorf("delayed-hit event = %+v", ev)
	}
	if ev.At != 10 || ev.Done != 14 {
		t.Errorf("unresolved delayed hit times = at %d done %d (done falls back to lookup)", ev.At, ev.Done)
	}
	// The lead is unknown while the fill is unresolved.
	if ev.Lead != 0 {
		t.Errorf("lead = %d, want 0", ev.Lead)
	}
}

func TestUsefulObserverLead(t *testing.T) {
	next := &pendingMemory{}
	c := MustNew(Config{Name: "L3", SizeBytes: 4096, Ways: 4, Latency: 4, Policy: "lru"}, next)
	evs := recordSink(c, OpAccess)

	c.Access(0x1000, mem.Prefetch, 0, 0)
	next.futures[0].Resolve(50) // the prefetch lands at cycle 50
	c.Access(0x1000, mem.Read, 200, 0)
	if len(*evs) != 1 || (*evs)[0].Delayed || !(*evs)[0].Prefetched {
		t.Fatalf("resolved prefetch hit = %+v", *evs)
	}
	if lead := (*evs)[0].Lead; lead != 150 {
		t.Fatalf("lead = %d, want 150 (landed 150 cycles ahead of demand)", lead)
	}
	// Second demand access: the prefetched bit was consumed.
	c.Access(0x1000, mem.Read, 300, 0)
	if len(*evs) != 2 || (*evs)[1].Prefetched || (*evs)[1].Lead != 0 {
		t.Errorf("second hit still marked prefetched: %+v", (*evs)[1])
	}
}

// TestLatencyObserver checks the service latency a sink reads off access
// events: Done-At for hits whose completion is known, nothing for misses
// (resolved below) or non-demand kinds.
func TestLatencyObserver(t *testing.T) {
	c, _ := testCache(t, 4096, 4, "lru")
	type obs struct {
		kind   mem.AccessKind
		cycles uint64
	}
	var got []obs
	c.SetSink(func(ev Event) {
		if ev.Op == OpAccess && !ev.Miss && !ev.Pending {
			got = append(got, obs{ev.Kind, ev.Done - ev.At})
		}
	})

	c.Access(0x1000, mem.Read, 0, 0)   // miss: resolved below, not here
	c.Access(0x1000, mem.Read, 200, 0) // hit: 4-cycle lookup
	c.Access(0x1000, mem.Write, 300, 0)
	c.Access(0x2000, mem.Prefetch, 400, 0) // prefetch probes are not demand
	want := []obs{{mem.Read, 4}, {mem.Write, 4}}
	if len(got) != len(want) {
		t.Fatalf("latency observations = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("observation %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// twinMemory answers every other read with a future the test resolves later,
// so a run sees resolved, delayed and pending-delayed hits.
type twinMemory struct {
	n       int
	pending []*mem.Future
}

func (m *twinMemory) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	m.n++
	if kind == mem.Writeback || m.n%2 == 0 {
		return mem.Done(at + 100)
	}
	f := mem.NewFuture(nil)
	m.pending = append(m.pending, f)
	return mem.Pending(f)
}

func (m *twinMemory) resolve(at uint64) {
	for _, f := range m.pending {
		f.Resolve(at)
	}
	m.pending = m.pending[:0]
}

// TestSinkNeutral runs one random mix of demand, prefetch and writeback
// accesses through two identical caches, one with a recording sink: the
// sink must not change a returned result, a counter or residency.
func TestSinkNeutral(t *testing.T) {
	classify := func(pa mem.Addr, kind mem.AccessKind) Insertion {
		switch mem.LineIndex(pa) % 3 {
		case 0:
			return Insertion{Pin: true, Atom: 1}
		case 1:
			return Insertion{Pri: InsertLow, Atom: 2}
		}
		return Insertion{Atom: 3}
	}
	build := func() (*Cache, *twinMemory) {
		next := &twinMemory{}
		c := MustNew(Config{Name: "L", SizeBytes: 2048, Ways: 4, Latency: 4, Policy: "drrip"}, next)
		c.SetClassifier(classify)
		return c, next
	}
	plain, plainMem := build()
	sunk, sunkMem := build()
	counts := map[Op]int{}
	sunk.SetSink(func(ev Event) { counts[ev.Op]++ })

	kinds := []mem.AccessKind{mem.Read, mem.Read, mem.Write, mem.Prefetch, mem.Writeback}
	rng := rand.New(rand.NewSource(1))
	const lines = 96
	for i := 0; i < 5000; i++ {
		pa := mem.Addr(rng.Intn(lines)) << mem.LineShift
		kind := kinds[rng.Intn(len(kinds))]
		at := uint64(i * 3)
		a, b := plain.Access(pa, kind, at, 0x40), sunk.Access(pa, kind, at, 0x40)
		ad, aok := a.Peek()
		bd, bok := b.Peek()
		if ad != bd || aok != bok {
			t.Fatalf("op %d (%v %#x): result %d/%v without sink, %d/%v with", i, kind, pa, ad, aok, bd, bok)
		}
		if i%7 == 0 {
			plainMem.resolve(at + 50)
			sunkMem.resolve(at + 50)
		}
	}
	if plain.Stats() != sunk.Stats() {
		t.Errorf("stats differ:\n without sink %+v\n with sink    %+v", plain.Stats(), sunk.Stats())
	}
	if plain.PinnedLines() != sunk.PinnedLines() {
		t.Errorf("pinned lines %d without sink, %d with", plain.PinnedLines(), sunk.PinnedLines())
	}
	for l := 0; l < lines; l++ {
		pa := mem.Addr(l) << mem.LineShift
		if plain.Contains(pa) != sunk.Contains(pa) {
			t.Errorf("line %d resident %v without sink, %v with", l, plain.Contains(pa), sunk.Contains(pa))
		}
	}
	if st := plain.Stats(); st.DelayedHits == 0 || st.PrefetchUseful == 0 || st.PinInserts == 0 ||
		st.PinDowngrades == 0 || st.Writebacks == 0 {
		t.Errorf("the mix misses an outcome the sink reports: %+v", st)
	}
	if counts[OpAccess] == 0 || counts[OpEvict] == 0 {
		t.Errorf("sink saw %d accesses and %d evictions; the mix should produce both", counts[OpAccess], counts[OpEvict])
	}
}
