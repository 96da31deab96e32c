package cpu

import (
	"math/rand"
	"testing"

	"xmem/internal/mem"
)

// TestHotPathIssueMemAllocFree is the allocs/op gate for the core's issue
// path (`make alloc-gate`): with resolved results, a full ROB and full
// load/store queues, IssueMem's stall, retire and push steps reuse the
// fixed-capacity rings and allocate nothing. Each measured run is a batch
// of ops because testing.AllocsPerRun truncates to whole allocations per
// run: slices that re-grow every few dozen ops average below one per op.
func TestHotPathIssueMemAllocFree(t *testing.T) {
	c := New(Config{})
	slow := func(at uint64) mem.Result { return mem.Done(at + 300) }
	i := 0
	batch := func() {
		for k := 0; k < hotPathBatch; k++ {
			c.IssueMem(i%3 != 0, slow)
			i++
		}
	}
	batch()
	if allocs := testing.AllocsPerRun(10, batch); allocs != 0 {
		t.Errorf("steady-state IssueMem allocates %.0f per %d ops, want 0", allocs, hotPathBatch)
	}
	if c.Stats().ROBStallCycles == 0 && c.Stats().LSQStallCycles == 0 {
		t.Error("no stalls: the gate did not reach a full window")
	}
}

// hotPathBatch is the number of ops per measured run of the alloc gates.
const hotPathBatch = 200

// refCore is the slice-backed core the rings replaced, kept as a reference:
// the ROB and queues re-slice from the front and append at the back.
type refCore struct {
	cfg       Config
	instr     uint64
	nextIssue uint64
	frac      int
	rob       []robEntry
	lq, sq    []mem.Result
	stats     Stats
}

func (c *refCore) Work(n uint64) {
	c.instr += n
	c.stats.Instructions += n
	total := uint64(c.frac) + n
	c.nextIssue += total / uint64(c.cfg.IssueWidth)
	c.frac = int(total % uint64(c.cfg.IssueWidth))
}

func (c *refCore) stallUntil(at uint64) uint64 {
	if at <= c.nextIssue {
		return 0
	}
	stall := at - c.nextIssue
	c.nextIssue = at
	c.frac = 0
	return stall
}

func refDrain(q []mem.Result, now uint64) []mem.Result {
	for len(q) > 0 {
		if done, ok := q[0].Peek(); ok && done <= now {
			q = q[1:]
			continue
		}
		return q
	}
	return q
}

func (c *refCore) IssueMem(isLoad bool, access func(at uint64) mem.Result) {
	c.instr++
	c.stats.Instructions++
	if isLoad {
		c.stats.Loads++
	} else {
		c.stats.Stores++
	}
	for len(c.rob) > 0 {
		done, ok := c.rob[0].res.Peek()
		if !ok || done > c.nextIssue {
			break
		}
		c.rob = c.rob[1:]
	}
	for len(c.rob) > 0 && c.instr-c.rob[0].instr >= uint64(c.cfg.ROBSize) {
		c.stats.ROBStallCycles += c.stallUntil(c.rob[0].res.Wait())
		c.rob = c.rob[1:]
	}
	q, limit := &c.lq, c.cfg.LQSize
	if !isLoad {
		q, limit = &c.sq, c.cfg.SQSize
	}
	*q = refDrain(*q, c.nextIssue)
	for len(*q) >= limit {
		c.stats.LSQStallCycles += c.stallUntil((*q)[0].Wait())
		*q = refDrain((*q)[1:], c.nextIssue)
	}
	res := access(c.nextIssue)
	c.rob = append(c.rob, robEntry{instr: c.instr, res: res})
	*q = append(*q, res)
	c.frac++
	if c.frac >= c.cfg.IssueWidth {
		c.frac = 0
		c.nextIssue++
	}
}

func (c *refCore) Finish() uint64 {
	end := c.nextIssue
	for _, e := range c.rob {
		if d := e.res.Wait(); d > end {
			end = d
		}
	}
	c.nextIssue = end
	c.stats.Cycles = end
	return end
}

// TestRingCoreMatchesSliceReference drives the ring-backed core and the
// slice reference through identical random streams of loads, stores and
// work, with a mix of resolved and pending results whose forcing order is
// recorded, and requires identical stats, cycle counts and force orders.
func TestRingCoreMatchesSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			IssueWidth: 1 + rng.Intn(4),
			ROBSize:    1 + rng.Intn(40),
			LQSize:     1 + rng.Intn(12),
			SQSize:     1 + rng.Intn(12),
		}
		c, ref := New(cfg), &refCore{cfg: New(cfg).cfg}
		var forced, refForced []int
		mk := func(log *[]int, id int, lat uint64, pending bool) func(at uint64) mem.Result {
			return func(at uint64) mem.Result {
				if !pending {
					return mem.Done(at + lat)
				}
				var f *mem.Future
				f = mem.NewFuture(func() {
					*log = append(*log, id)
					f.Resolve(at + lat)
				})
				return mem.Pending(f)
			}
		}
		for op := 0; op < 3000; op++ {
			if rng.Intn(5) == 0 {
				n := uint64(rng.Intn(9))
				c.Work(n)
				ref.Work(n)
				continue
			}
			isLoad := rng.Intn(3) != 0
			lat := uint64(1 + rng.Intn(400))
			pending := rng.Intn(2) == 0
			c.IssueMem(isLoad, mk(&forced, op, lat, pending))
			ref.IssueMem(isLoad, mk(&refForced, op, lat, pending))
			if c.Now() != ref.nextIssue || c.Stats() != ref.stats {
				t.Fatalf("seed %d op %d: now %d stats %+v, reference now %d stats %+v",
					seed, op, c.Now(), c.Stats(), ref.nextIssue, ref.stats)
			}
		}
		if got, want := c.Finish(), ref.Finish(); got != want || c.Stats() != ref.stats {
			t.Fatalf("seed %d: Finish %d stats %+v, reference %d stats %+v", seed, got, c.Stats(), want, ref.stats)
		}
		if len(forced) != len(refForced) {
			t.Fatalf("seed %d: forced %d futures, reference %d", seed, len(forced), len(refForced))
		}
		for i := range forced {
			if forced[i] != refForced[i] {
				t.Fatalf("seed %d: force order differs at %d: %d vs %d", seed, i, forced[i], refForced[i])
			}
		}
	}
}
