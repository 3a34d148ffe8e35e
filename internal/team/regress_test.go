package team

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// Regression tests for the cancellation-correctness fixes: a reduction
// (a region then PartialSum — reduceSum here) on a cancelled team must
// not return sums of stale partial slots, a size-1 team must not run
// region bodies once cancelled, and concurrent Close calls must not
// race on the closed flag.

// TestReduceSumCancelledReturnsZero: a cancelled team must not sum the
// previous region's partials (they are stale) — it returns 0 and the
// caller checks Cancelled().
func TestReduceSumCancelledReturnsZero(t *testing.T) {
	tm := New(4)
	defer tm.Close()

	body := func(blo, bhi int) float64 { return float64(bhi - blo) }
	if got := reduceSum(tm, 0, 100, body); got != 100 {
		t.Fatalf("warm-up ReduceSum = %v, want 100", got)
	}

	tm.Cancel(errors.New("stop"))
	var ran atomic.Bool
	got := reduceSum(tm, 0, 100, func(blo, bhi int) float64 {
		ran.Store(true)
		return float64(bhi - blo)
	})
	if got != 0 {
		t.Fatalf("ReduceSum on cancelled team = %v, want 0 (stale partials must not leak)", got)
	}
	if ran.Load() {
		t.Fatal("ReduceSum body ran on a cancelled team")
	}
	if !tm.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
}

// TestPartialSumCancelledReturnsZero: the slots may mix an aborted
// region's partials with older ones, so PartialSum refuses to sum them.
func TestPartialSumCancelledReturnsZero(t *testing.T) {
	tm := New(3)
	defer tm.Close()
	tm.Run(func(id int) { *tm.Partial(id) = float64(id + 1) })
	if got := tm.PartialSum(); got != 6 {
		t.Fatalf("PartialSum = %v, want 6", got)
	}
	tm.Cancel(nil)
	if got := tm.PartialSum(); got != 0 {
		t.Fatalf("PartialSum on cancelled team = %v, want 0", got)
	}
}

// TestInlinePathsHonorCancellation: a size-1 team runs region bodies on
// the caller; once cancelled it must skip them, the no-op semantics the
// dispatched n>1 path has.
func TestInlinePathsHonorCancellation(t *testing.T) {
	tm := New(1)
	defer tm.Close()
	tm.Cancel(errors.New("stop"))

	var ran atomic.Bool
	forEach(tm, 0, 10, func(i int) { ran.Store(true) })
	if ran.Load() {
		t.Fatal("forEach body ran on a cancelled size-1 team")
	}
	forBlock(tm, 0, 10, func(blo, bhi int) { ran.Store(true) })
	if ran.Load() {
		t.Fatal("forBlock body ran on a cancelled size-1 team")
	}
	if got := reduceSum(tm, 0, 10, func(blo, bhi int) float64 { ran.Store(true); return 1 }); got != 0 || ran.Load() {
		t.Fatalf("reduceSum on cancelled size-1 team: got %v, body ran %v", got, ran.Load())
	}
}

// TestInlinePathsStillRunUncancelled guards the fix against
// over-correction: a live size-1 team still runs the bodies.
func TestInlinePathsStillRunUncancelled(t *testing.T) {
	tm := New(1)
	defer tm.Close()
	var n atomic.Int64
	forEach(tm, 0, 5, func(i int) { n.Add(1) })
	if n.Load() != 5 {
		t.Fatalf("For ran %d iterations, want 5", n.Load())
	}
	forBlock(tm, 0, 5, func(blo, bhi int) { n.Add(int64(bhi - blo)) })
	if n.Load() != 10 {
		t.Fatalf("ForBlock covered %d total, want 10", n.Load())
	}
	if got := reduceSum(tm, 0, 4, func(blo, bhi int) float64 { return float64(bhi - blo) }); got != 4 {
		t.Fatalf("ReduceSum = %v, want 4", got)
	}
}

// TestCloseConcurrent: Close is documented idempotent; before the fix
// two racing Close calls could both observe closed == false and
// double-close the work channels. Run under -race this also checks the
// closed flag is properly synchronized.
func TestCloseConcurrent(t *testing.T) {
	tm := New(4)
	tm.Run(func(id int) {}) // make sure the workers are live first
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm.Close()
		}()
	}
	wg.Wait()
	tm.Close() // still idempotent afterwards
}

// TestCancelledReduceSumMidRegion: a cancellation landing while the
// region is in flight must also yield 0, not a half-updated mix of old
// and new partials.
func TestCancelledReduceSumMidRegion(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	if got := reduceSum(tm, 0, 2, func(blo, bhi int) float64 { return 1000 }); got != 2000 {
		t.Fatalf("seed ReduceSum = %v, want 2000", got)
	}
	got := reduceSum(tm, 0, 2, func(blo, bhi int) float64 {
		tm.Cancel(errors.New("mid-region stop"))
		return 1
	})
	if got != 0 {
		t.Fatalf("mid-region-cancelled ReduceSum = %v, want 0", got)
	}
}
