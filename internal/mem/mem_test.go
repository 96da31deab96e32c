package mem

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x12345) != 0x12340 {
		t.Errorf("LineAddr = %#x", LineAddr(0x12345))
	}
	if LineIndex(0x12345) != 0x12345>>6 {
		t.Errorf("LineIndex = %#x", LineIndex(0x12345))
	}
	if PageAddr(0x12345) != 0x12000 {
		t.Errorf("PageAddr = %#x", PageAddr(0x12345))
	}
	if PageIndex(0x12345) != 0x12 {
		t.Errorf("PageIndex = %#x", PageIndex(0x12345))
	}
	if PageOffset(0x12345) != 0x345 {
		t.Errorf("PageOffset = %#x", PageOffset(0x12345))
	}
}

func TestLineHelpersQuick(t *testing.T) {
	prop := func(a uint64) bool {
		addr := Addr(a)
		la := LineAddr(addr)
		pa := PageAddr(addr)
		return la <= addr && addr-la < LineBytes &&
			pa <= addr && addr-pa < PageBytes &&
			uint64(pa)+PageOffset(addr) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccessKind(t *testing.T) {
	if !Read.IsDemand() || !Write.IsDemand() {
		t.Error("read/write must be demand")
	}
	if Prefetch.IsDemand() || Writeback.IsDemand() {
		t.Error("prefetch/writeback must not be demand")
	}
	names := map[AccessKind]string{
		Read: "read", Write: "write", Writeback: "writeback", Prefetch: "prefetch",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if AccessKind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

func TestResultDone(t *testing.T) {
	r := Done(42)
	if c, ok := r.Peek(); !ok || c != 42 {
		t.Fatalf("Peek = %d,%v", c, ok)
	}
	if r.Wait() != 42 {
		t.Fatal("Wait mismatch")
	}
}

func TestFutureForceResolves(t *testing.T) {
	var f *Future
	forced := 0
	f = NewFuture(func() {
		forced++
		f.Resolve(100)
	})
	r := Pending(f)
	if _, ok := r.Peek(); ok {
		t.Fatal("pending future peeked as resolved")
	}
	if got := r.Wait(); got != 100 {
		t.Fatalf("Wait = %d", got)
	}
	if got := r.Wait(); got != 100 || forced != 1 {
		t.Fatalf("second Wait = %d, forced %d times", got, forced)
	}
	if c, ok := r.Peek(); !ok || c != 100 {
		t.Fatal("resolved future must peek")
	}
}

// TestFutureSize guards Future at 32 bytes. Futures outlive the DRAM
// requests behind them (a cache line keeps its fill Result until it is
// replaced), so the co-run benchmark's peak RSS follows the Future's size
// class. Measured on the corun8 benchmark workload on a 2-vCPU Xeon host:
// embedding the Future in the DRAM request raised max_rss_mb from 10.2 to
// 14.7 (+44%), and keeping a func field beside the owner (a 48-byte size
// class) raised it to 11.25 (+10%).
func TestFutureSize(t *testing.T) {
	if got := unsafe.Sizeof(Future{}); got > 32 {
		t.Fatalf("mem.Future is %d bytes, want <= 32", got)
	}
}

// countingForcer resolves the futures it owns and counts the calls.
type countingForcer struct{ calls int }

func (c *countingForcer) ForceFuture(f *Future) {
	c.calls++
	f.Resolve(77)
}

func TestOwnedFutureForcesThroughOwner(t *testing.T) {
	owner := &countingForcer{}
	r := Pending(NewOwnedFuture(owner))
	if _, ok := r.Peek(); ok {
		t.Fatal("pending owned future peeked as resolved")
	}
	if got := r.Wait(); got != 77 || owner.calls != 1 {
		t.Fatalf("Wait = %d after %d owner calls, want 77 after 1", got, owner.calls)
	}
	if got := r.Wait(); got != 77 || owner.calls != 1 {
		t.Fatalf("second Wait = %d after %d owner calls; a resolved future must not call its owner", got, owner.calls)
	}
}

func TestFutureDoubleResolvePanics(t *testing.T) {
	f := NewFuture(nil)
	f.Resolve(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double resolve did not panic")
		}
	}()
	f.Resolve(2)
}

func TestFutureForceWithoutResolvePanics(t *testing.T) {
	f := NewFuture(func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("force that fails to resolve did not panic")
		}
	}()
	f.Force()
}

func TestDeferredMax(t *testing.T) {
	if got := Done(10).DeferredMax(20).Wait(); got != 20 {
		t.Errorf("resolved below floor: %d", got)
	}
	if got := Done(30).DeferredMax(20).Wait(); got != 30 {
		t.Errorf("resolved above floor: %d", got)
	}
	// A pending future passes through unchanged (the floor is dominated
	// by the outstanding fill).
	var f *Future
	f = NewFuture(func() { f.Resolve(500) })
	if got := Pending(f).DeferredMax(20).Wait(); got != 500 {
		t.Errorf("pending deferred max = %d", got)
	}
}
