package cache

import (
	"math/rand"
	"testing"
)

// The reference victim choices below are the predicate form Policy.Victim
// had before it took a blocked mask: eligible(w) was a closure built on
// every eviction. They are kept verbatim (modulo the receiver) so the mask
// form can be checked against them way for way.

func refLRUVictim(p *lru, set int, eligible func(way int) bool) int {
	best, bestStamp := -1, uint64(0)
	for w := 0; w < p.ways; w++ {
		if !eligible(w) {
			continue
		}
		if s := p.stamp[set*p.ways+w]; best == -1 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	return best
}

func refRRIPVictim(p *rrip, set int, eligible func(way int) bool) int {
	for {
		for w := 0; w < p.ways; w++ {
			if eligible(w) && p.rrpv[set*p.ways+w] == rripMax {
				return w
			}
		}
		aged := false
		for w := 0; w < p.ways; w++ {
			if p.rrpv[set*p.ways+w] < rripMax {
				p.rrpv[set*p.ways+w]++
				aged = true
			}
		}
		if !aged {
			for w := 0; w < p.ways; w++ {
				if eligible(w) {
					return w
				}
			}
			return 0
		}
	}
}

// eligibleFrom is the predicate the old chooseVictim built from a blocked
// mask (nil: every way eligible).
func eligibleFrom(blocked []bool) func(int) bool {
	if blocked == nil {
		return func(int) bool { return true }
	}
	return func(w int) bool { return !blocked[w] }
}

// randomMask returns nil (no pinned ways) a quarter of the time, otherwise
// a random mask with at least one unblocked way, as chooseVictim passes.
func randomMask(rng *rand.Rand, ways int) []bool {
	if rng.Intn(4) == 0 {
		return nil
	}
	m := make([]bool, ways)
	for w := range m {
		m[w] = rng.Intn(3) == 0
	}
	m[rng.Intn(ways)] = false
	return m
}

// TestVictimMaskMatchesPredicate drives LRU and every RRIP variant through
// random hit/insert/age/miss traffic and, at every eviction, checks that
// the mask-form Victim picks the same way as the predicate reference and
// leaves the same replacement state behind.
func TestVictimMaskMatchesPredicate(t *testing.T) {
	const sets, ways = 8, 8
	for _, pc := range []struct {
		name string
		mk   func(sets, ways int) Policy
	}{{"lru", NewLRU}, {"srrip", NewSRRIP}, {"brrip", NewBRRIP}, {"drrip", NewDRRIP}} {
		t.Run(pc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			p := pc.mk(sets, ways)
			for step := 0; step < 20000; step++ {
				set, way := rng.Intn(sets), rng.Intn(ways)
				switch rng.Intn(6) {
				case 0:
					p.Hit(set, way)
				case 1:
					p.Insert(set, way, InsertPriority(rng.Intn(3)))
				case 2:
					p.Age(set, way)
				case 3:
					p.Miss(set)
				default:
					blocked := randomMask(rng, ways)
					var want int
					switch ref := p.(type) {
					case *lru:
						want = refLRUVictim(ref, set, eligibleFrom(blocked))
						if got := p.Victim(set, blocked); got != want {
							t.Fatalf("step %d: Victim(%d, %v) = %d, predicate form = %d", step, set, blocked, got, want)
						}
					case *rrip:
						before := append([]uint8(nil), ref.rrpv...)
						got := p.Victim(set, blocked)
						after := append([]uint8(nil), ref.rrpv...)
						copy(ref.rrpv, before)
						want = refRRIPVictim(ref, set, eligibleFrom(blocked))
						if got != want {
							t.Fatalf("step %d: Victim(%d, %v) = %d, predicate form = %d", step, set, blocked, got, want)
						}
						for i := range after {
							if after[i] != ref.rrpv[i] {
								t.Fatalf("step %d: RRPV state differs at %d after Victim: %d vs %d", step, i, after[i], ref.rrpv[i])
							}
						}
					}
				}
			}
		})
	}
}
