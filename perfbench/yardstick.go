package main

import "runtime/debug"

// yardstickSlots is the size of the yardstick's live table: with a
// 48-byte node in every slot, about 3 MiB stay live once it has filled.
const yardstickSlots = 1 << 16

// yardstickAllocs is how many nodes one yardstick pass allocates: enough
// to fill the table and then churn through it for about as long again.
const yardstickAllocs = 150_000

type yardstickNode struct {
	next *yardstickNode
	val  [4]uint64
}

// yardstickSink keeps the compiler from dropping the yardstick's work.
var yardstickSink uint64

// yardstick runs a fixed kernel written in the benchmark itself, not in
// the simulator, and returns the process CPU time it took in seconds.
// The kernel does what the simulator's host time is most sensitive to:
// small heap allocations that replace entries of a few-MiB live set
// picked at random, so the garbage collector and the caches work as they
// do under a simulation. Its time tracks how fast the host runs that
// kind of code at the moment; no change to the simulator can move it.
func yardstick() float64 {
	debug.FreeOSMemory()
	c0 := processCPU()
	var live [yardstickSlots]*yardstickNode
	x := uint64(1)
	for i := 0; i < yardstickAllocs; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		n := &yardstickNode{val: [4]uint64{x}}
		j := (x >> 33) % yardstickSlots
		if old := live[j]; old != nil {
			n.next = old.next
		}
		live[j] = n
	}
	for _, n := range live {
		if n != nil {
			yardstickSink += n.val[0]
		}
	}
	return float64(processCPU()-c0) / 1e9
}
