package cache

import (
	"fmt"

	"xmem/internal/core"
	"xmem/internal/mem"
)

// Lower is anything a cache can forward requests to: the next cache level
// or the memory controller.
type Lower interface {
	// Access processes a line request arriving at CPU cycle `at` and
	// returns the cycle at which the data is available — possibly as a
	// pending Future when the completion depends on memory-controller
	// scheduling (writebacks return their acceptance time).
	Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result
}

// Insertion is the XMem cache controller's classification of a fill,
// derived from the active atom (if any) behind the address.
type Insertion struct {
	// Pri is the insertion priority handed to the replacement policy.
	Pri InsertPriority
	// Atom is the active atom behind the line (InvalidAtom if none).
	Atom core.AtomID
	// Pin requests that the line be pinned (§5.2(3)).
	Pin bool
}

// Classifier decides the insertion treatment of a line at fill time.
// A nil classifier means every fill is InsertDefault (the baseline system).
type Classifier func(pa mem.Addr, kind mem.AccessKind) Insertion

// Op says what an Event reports.
type Op uint8

const (
	// OpAccess is a demand access (Read or Write) whose outcome at this
	// level is known: a hit, a delayed hit, or a miss after its fill was
	// installed.
	OpAccess Op = iota
	// OpEvict is a valid line leaving the cache to make room for a fill.
	OpEvict
)

// Event is one observable cache event: the single record the simulator's
// prefetcher training, per-atom attribution, latency histograms and span
// tracer all read. Flags that do not apply to an Op are false.
type Event struct {
	Op Op
	// Kind is the demand kind (Read or Write) of an access.
	Kind mem.AccessKind
	// Miss is true when the access missed and filled from below.
	Miss bool
	// Delayed marks a hit on a line whose fill is still in flight; Pending
	// a delayed hit whose fill completion is not yet resolved.
	Delayed bool
	Pending bool
	// Prefetched marks a hit that consumed a prefetched line (its first
	// use, the useful-prefetch definition); Lead says how far ahead.
	Prefetched bool
	// Pinned marks a hit on a pinned line, a miss whose fill was inserted
	// pinned, or the eviction of a pinned line.
	Pinned bool
	// PinDenied marks a miss whose pin request the set cap downgraded.
	PinDenied bool
	// LowPriority marks a miss inserted at low priority (streaming bypass).
	LowPriority bool
	// Atom is the line's insertion-time atom classification (InvalidAtom
	// when no classifier ran).
	Atom core.AtomID
	// PA is the line address (the victim's, for an eviction); PC the
	// access site of an access.
	PA mem.Addr
	PC mem.Addr
	// Lead is how many cycles before a Prefetched access its fill
	// completed (0 when late or unresolved).
	Lead uint64
	// At is the arrival cycle at this level (of the fill's request, for an
	// eviction). Done is the cycle the level's answer was available: the
	// lookup for hits, misses and pending delayed hits (for a miss, the
	// cycle the request left for the next level), the fill's completion for
	// resolved delayed hits.
	At   uint64
	Done uint64
}

// Sink receives the cache's events while installed. Events pass by value, so
// delivering one allocates nothing; a nil sink costs one branch per demand
// access and one per eviction.
type Sink func(Event)

// Stats counts cache activity.
type Stats struct {
	Hits        uint64
	Misses      uint64
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	// DelayedHits are demand hits on lines still in flight (typically
	// filled by an earlier prefetch that has not completed).
	DelayedHits uint64
	// PrefetchHits/Misses count prefetch probes.
	PrefetchHits   uint64
	PrefetchMisses uint64
	// PrefetchFills counts lines installed by prefetches.
	PrefetchFills uint64
	// PrefetchUseful counts prefetched lines that later served a demand
	// access (each line counts once).
	PrefetchUseful uint64
	// Writebacks counts dirty evictions sent down.
	Writebacks uint64
	// Evictions counts all evictions of valid lines.
	Evictions uint64
	// PinInserts counts lines inserted pinned; PinDowngrades counts pin
	// requests denied by the 75% cap.
	PinInserts    uint64
	PinDowngrades uint64
	// PinEvictions counts pinned lines evicted (only possible when a set
	// is saturated with pinned lines).
	PinEvictions uint64
}

// DemandAccesses returns the number of demand (read+write) accesses.
func (s Stats) DemandAccesses() uint64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// DemandMissRate returns misses per demand access.
func (s Stats) DemandMissRate() float64 {
	d := s.DemandAccesses()
	if d == 0 {
		return 0
	}
	return float64(s.ReadMisses+s.WriteMisses) / float64(d)
}

// Config describes one cache level.
type Config struct {
	// Name labels the cache in reports ("L1D", "L2", "L3").
	Name string
	// SizeBytes is the total capacity; it must be a power-of-two multiple
	// of Ways*LineBytes.
	SizeBytes uint64
	// Ways is the associativity.
	Ways int
	// Latency is the lookup latency in CPU cycles.
	Latency uint64
	// Policy names the replacement policy: "lru", "srrip", "brrip",
	// "drrip".
	Policy string
	// PinCapFraction bounds the fraction of ways in a set that may hold
	// pinned lines; 0 selects the paper's 75% (§5.2).
	PinCapFraction float64
}

// DefaultPinCapFraction is the §5.2 pinning limit: the cache keeps 25% of
// each set available for other data.
const DefaultPinCapFraction = 0.75

// Cache is one level of the simulated hierarchy.
type Cache struct {
	cfg    Config
	sets   int
	ways   int
	policy Policy

	tags       []uint64
	valid      []bool
	dirty      []bool
	pinned     []bool
	prefetched []bool
	atoms      []core.AtomID
	fill       []mem.Result

	pinnedInSet []int
	pinCapWays  int

	next     Lower
	classify Classifier
	sink     Sink

	stats Stats
}

// New builds a cache from cfg, forwarding misses to next.
func New(cfg Config, next Lower) (*Cache, error) {
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways must be positive", cfg.Name)
	}
	lines := cfg.SizeBytes / mem.LineBytes
	if lines == 0 || lines%uint64(cfg.Ways) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of %d-byte lines",
			cfg.Name, cfg.SizeBytes, cfg.Ways, mem.LineBytes)
	}
	sets := int(lines) / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d is not a power of two", cfg.Name, sets)
	}
	var pol Policy
	switch cfg.Policy {
	case "", "lru":
		pol = NewLRU(sets, cfg.Ways)
	case "srrip":
		pol = NewSRRIP(sets, cfg.Ways)
	case "brrip":
		pol = NewBRRIP(sets, cfg.Ways)
	case "drrip":
		pol = NewDRRIP(sets, cfg.Ways)
	default:
		return nil, fmt.Errorf("cache %s: unknown policy %q", cfg.Name, cfg.Policy)
	}
	frac := cfg.PinCapFraction
	if frac == 0 {
		frac = DefaultPinCapFraction
	}
	capWays := int(frac * float64(cfg.Ways))
	if capWays < 1 {
		capWays = 1
	}
	n := sets * cfg.Ways
	return &Cache{
		cfg: cfg, sets: sets, ways: cfg.Ways, policy: pol,
		tags: make([]uint64, n), valid: make([]bool, n),
		dirty: make([]bool, n), pinned: make([]bool, n),
		prefetched: make([]bool, n),
		atoms:      make([]core.AtomID, n), fill: make([]mem.Result, n),
		pinnedInSet: make([]int, sets), pinCapWays: capWays,
		next: next,
	}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config, next Lower) *Cache {
	c, err := New(cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// SizeBytes returns the capacity.
func (c *Cache) SizeBytes() uint64 { return c.cfg.SizeBytes }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// PolicyName returns the replacement policy name.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// SetClassifier installs the XMem insertion classifier.
func (c *Cache) SetClassifier(f Classifier) { c.classify = f }

// SetSink installs the event sink (nil removes it).
func (c *Cache) SetSink(f Sink) { c.sink = f }

func (c *Cache) index(pa mem.Addr) (set int, tag uint64) {
	line := mem.LineIndex(pa)
	return int(line) & (c.sets - 1), line >> uint(log2(c.sets))
}

// lineAddr returns the address of the line held in slot idx of set.
func (c *Cache) lineAddr(set, idx int) mem.Addr {
	return mem.Addr((c.tags[idx]<<uint(log2(c.sets)) | uint64(set)) << mem.LineShift)
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}

func (c *Cache) find(set int, tag uint64) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return w
		}
	}
	return -1
}

// Access implements Lower.
func (c *Cache) Access(pa mem.Addr, kind mem.AccessKind, at uint64, pc mem.Addr) mem.Result {
	pa = mem.LineAddr(pa)
	set, tag := c.index(pa)
	way := c.find(set, tag)

	if kind == mem.Writeback {
		return c.accessWriteback(pa, set, way, at, pc)
	}

	lookupDone := at + c.cfg.Latency
	if way >= 0 {
		idx := set*c.ways + way
		c.recordHit(kind)
		demand := kind.IsDemand()
		consumedPrefetch := demand && c.prefetched[idx]
		if consumedPrefetch {
			c.prefetched[idx] = false
			c.stats.PrefetchUseful++
		}
		if kind != mem.Prefetch {
			c.policy.Hit(set, way)
		}
		if kind == mem.Write {
			c.dirty[idx] = true
		}
		// A fill still in flight (e.g., an earlier prefetch) delays the hit.
		done, ok := c.fill[idx].Peek()
		delayed := !ok || done > lookupDone
		if demand {
			if delayed {
				c.stats.DelayedHits++
			}
			if c.sink != nil {
				ev := Event{Op: OpAccess, Kind: kind, Delayed: delayed, Pending: !ok,
					Prefetched: consumedPrefetch, Pinned: c.pinned[idx], Atom: c.atoms[idx],
					PA: pa, PC: pc, At: at, Done: lookupDone}
				if delayed && ok {
					ev.Done = done
				}
				if consumedPrefetch && ok && done < at {
					ev.Lead = at - done
				}
				c.sink(ev)
			}
		}
		if delayed {
			return c.fill[idx].DeferredMax(lookupDone)
		}
		return mem.Done(lookupDone)
	}

	// Miss.
	c.recordMiss(kind)
	c.policy.Miss(set)
	fetchKind := mem.Read
	if kind == mem.Prefetch {
		fetchKind = mem.Prefetch
	}
	fill := c.next.Access(pa, fetchKind, lookupDone, pc)
	ins, pinDenied := c.install(pa, set, tag, kind, at, fill, pc)
	if kind.IsDemand() && c.sink != nil {
		c.sink(Event{Op: OpAccess, Kind: kind, Miss: true,
			Pinned: ins.Pin, PinDenied: pinDenied, LowPriority: ins.Pri == InsertLow,
			Atom: ins.Atom, PA: pa, PC: pc, At: at, Done: lookupDone})
	}
	return fill
}

func (c *Cache) accessWriteback(pa mem.Addr, set, way int, at uint64, pc mem.Addr) mem.Result {
	if way >= 0 {
		idx := set*c.ways + way
		c.dirty[idx] = true
		return mem.Done(at + c.cfg.Latency)
	}
	// Non-inclusive: a writeback missing here forwards to the next level.
	return c.next.Access(pa, mem.Writeback, at+c.cfg.Latency, pc)
}

func (c *Cache) recordHit(kind mem.AccessKind) {
	switch kind {
	case mem.Read:
		c.stats.Hits++
		c.stats.ReadHits++
	case mem.Write:
		c.stats.Hits++
		c.stats.WriteHits++
	case mem.Prefetch:
		c.stats.PrefetchHits++
	}
}

func (c *Cache) recordMiss(kind mem.AccessKind) {
	switch kind {
	case mem.Read:
		c.stats.Misses++
		c.stats.ReadMisses++
	case mem.Write:
		c.stats.Misses++
		c.stats.WriteMisses++
	case mem.Prefetch:
		c.stats.PrefetchMisses++
	}
}

// install fills pa into the cache, evicting a victim if needed (one OpEvict
// event per valid victim). It returns the applied insertion decision and
// whether a requested pin was denied by the set cap (the access event
// reports both).
func (c *Cache) install(pa mem.Addr, set int, tag uint64, kind mem.AccessKind, at uint64, fill mem.Result, pc mem.Addr) (Insertion, bool) {
	ins := Insertion{Pri: InsertDefault, Atom: core.InvalidAtom}
	if c.classify != nil {
		ins = c.classify(pa, kind)
	}
	pinDenied := false
	if ins.Pin {
		if c.pinnedInSet[set] >= c.pinCapWays {
			// §5.2(3): beyond the cap, insert with the default policy.
			ins.Pin = false
			ins.Pri = InsertDefault
			pinDenied = true
			c.stats.PinDowngrades++
		} else {
			ins.Pri = InsertHigh
		}
	}

	way := c.chooseVictim(set)
	idx := set*c.ways + way
	if c.valid[idx] {
		c.stats.Evictions++
		wasPinned := c.pinned[idx]
		if wasPinned {
			c.stats.PinEvictions++
			c.pinnedInSet[set]--
		}
		if c.sink != nil {
			c.sink(Event{Op: OpEvict, Pinned: wasPinned, Atom: c.atoms[idx], PA: c.lineAddr(set, idx), At: at})
		}
		if c.dirty[idx] {
			c.stats.Writebacks++
			victimPA := c.lineAddr(set, idx)
			// The victim leaves when the fill arrives; if the fill time
			// is still pending, approximate with the probe time (writes
			// are fire-and-forget and scheduled lazily anyway).
			wbAt := at
			if done, ok := fill.Peek(); ok {
				wbAt = done
			}
			c.next.Access(victimPA, mem.Writeback, wbAt, pc)
		}
	}

	c.tags[idx] = tag
	c.valid[idx] = true
	c.dirty[idx] = kind == mem.Write
	c.pinned[idx] = ins.Pin
	c.prefetched[idx] = kind == mem.Prefetch
	c.atoms[idx] = ins.Atom
	c.fill[idx] = fill
	if ins.Pin {
		c.pinnedInSet[set]++
		c.stats.PinInserts++
	}
	if kind == mem.Prefetch {
		c.stats.PrefetchFills++
	}
	c.policy.Insert(set, way, ins.Pri)
	return ins, pinDenied
}

// chooseVictim prefers invalid ways, then unpinned lines; pinned lines are
// victims of last resort. The set's pinned flags are the policy's blocked
// mask, so an eviction builds no predicate.
//
//xmem:allocfree
func (c *Cache) chooseVictim(set int) int {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			return w
		}
	}
	unpinnedExists := false
	for w := 0; w < c.ways; w++ {
		if !c.pinned[base+w] {
			unpinnedExists = true
			break
		}
	}
	var blocked []bool
	if unpinnedExists {
		blocked = c.pinned[base : base+c.ways]
	}
	return c.policy.Victim(set, blocked) //xmem:alloc-ok Policy dispatch: the LRU and RRIP Victim implementations are //xmem:allocfree roots themselves
}

// AgePinned removes the pin from every line whose atom fails keep, and ages
// it so the default replacement policy can evict it (§5.2(3): the cache ages
// high-priority lines only when the list of active atoms changes).
func (c *Cache) AgePinned(keep func(core.AtomID) bool) {
	for set := 0; set < c.sets; set++ {
		base := set * c.ways
		for w := 0; w < c.ways; w++ {
			idx := base + w
			if !c.valid[idx] || !c.pinned[idx] {
				continue
			}
			if keep != nil && keep(c.atoms[idx]) {
				continue
			}
			c.pinned[idx] = false
			c.pinnedInSet[set]--
			c.policy.Age(set, w)
		}
	}
}

// Contains reports whether pa is resident (testing/introspection). Unlike
// Access, it never touches replacement or stats state.
//
//xmem:statsneutral
func (c *Cache) Contains(pa mem.Addr) bool {
	set, tag := c.index(mem.LineAddr(pa))
	return c.find(set, tag) >= 0
}

// PinnedLines returns the total number of pinned resident lines.
func (c *Cache) PinnedLines() int {
	n := 0
	for _, p := range c.pinnedInSet {
		n += p
	}
	return n
}
