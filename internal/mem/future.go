package mem

// Future is the eventually-known completion time of a memory request whose
// scheduling depends on other requests that may not have arrived yet (DRAM
// requests under FR-FCFS). Its owner (the memory controller's channel)
// advances its scheduler until the request completes when forced.
//
// A Future is 32 bytes and refers only to its long-lived owner, never to
// the request it tracks: futures outlive requests (a cache line's fill
// Result is kept until the line is replaced), so anything a Future holds
// stays live with the simulated cache contents (see TestFutureSize).
type Future struct {
	done     uint64
	resolved bool
	owner    Forcer
}

// Forcer owns pending futures: ForceFuture runs the owner's scheduler until
// f is resolved.
type Forcer interface {
	ForceFuture(f *Future)
}

// forceFunc adapts a plain callback to Forcer, for owners that have no
// long-lived value to act as one (Result.Offset, tests).
type forceFunc func()

func (fn forceFunc) ForceFuture(*Future) { fn() }

// NewFuture returns an unresolved future whose Force drains via the given
// callback. The callback must leave the future resolved.
func NewFuture(force func()) *Future { return &Future{owner: forceFunc(force)} }

// NewOwnedFuture returns an unresolved future that owner resolves when
// forced. Unlike NewFuture it needs no per-future closure.
func NewOwnedFuture(owner Forcer) *Future { return &Future{owner: owner} }

// Resolve records the completion cycle. Resolving twice is a bug in the
// owner and panics.
func (f *Future) Resolve(cycle uint64) {
	if f.resolved {
		panic("mem: future resolved twice")
	}
	f.done = cycle
	f.resolved = true
	f.owner = nil
}

// Resolved reports whether the completion time is known.
func (f *Future) Resolved() bool { return f.resolved }

// Force blocks (by running the owner's scheduler) until the completion time
// is known, then returns it.
func (f *Future) Force() uint64 {
	if !f.resolved {
		f.owner.ForceFuture(f)
		if !f.resolved {
			panic("mem: force did not resolve future")
		}
	}
	return f.done
}

// Result is the outcome of a memory access: either an already-known
// completion cycle or a pending Future.
type Result struct {
	cycle uint64
	fut   *Future
}

// Done returns a resolved Result.
func Done(cycle uint64) Result { return Result{cycle: cycle} }

// Pending returns a Result backed by a future.
func Pending(f *Future) Result { return Result{fut: f} }

// Peek returns the completion cycle if it is known without forcing.
//
//xmem:statsneutral
func (r Result) Peek() (uint64, bool) {
	if r.fut == nil {
		return r.cycle, true
	}
	if r.fut.Resolved() {
		// Force on a resolved future is a pure read: Resolve cleared the
		// owner, so no scheduler work can run from here.
		return r.fut.Force(), true //xmem:stats-ok Force after Resolved() returns the stored cycle; the owner was nilled by Resolve
	}
	return 0, false
}

// Wait forces the result and returns the completion cycle.
func (r Result) Wait() uint64 {
	if r.fut == nil {
		return r.cycle
	}
	return r.fut.Force()
}

// DeferredMax returns a Result that is at least `floor` cycles: if r is
// already known, the max is computed immediately; otherwise the floor is
// folded in when the future resolves. Used for hits on in-flight lines where
// the lookup latency is negligible next to the outstanding fill.
func (r Result) DeferredMax(floor uint64) Result {
	if c, ok := r.Peek(); ok {
		if c < floor {
			return Done(floor)
		}
		return Done(c)
	}
	return r
}

// Offset returns a Result whose completion is delta cycles after r's —
// used by interconnect models that add fixed latency to a pending memory
// response.
func (r Result) Offset(delta uint64) Result {
	if delta == 0 {
		return r
	}
	if c, ok := r.Peek(); ok {
		return Done(c + delta)
	}
	inner := r.fut
	var f *Future
	f = NewFuture(func() { f.Resolve(inner.Force() + delta) })
	return Pending(f)
}
