package team

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// Schedule-equivalence properties: whatever schedule distributes the
// chunks, a loop must cover each index exactly once, element-wise
// writes must be bit-identical to the static schedule, and reductions
// must be bit-identical to static at a fixed team size. These are the
// invariants that let `-schedule` change benchmark performance without
// ever changing a verification result.

func allSchedules() []Schedule {
	return []Schedule{Static, Dynamic, Guided, Stealing}
}

// TestScheduleForCoversEachIndexExactlyOnce: every schedule × team size
// × range shape (empty, smaller than the team, much larger) visits each
// index exactly once. Repeats reuse the team so the loop-slot ring and
// the instance tags are exercised across many loop generations.
func TestScheduleForCoversEachIndexExactlyOnce(t *testing.T) {
	ranges := []struct{ lo, hi int }{
		{0, 0},    // empty
		{5, 5},    // empty, nonzero origin
		{0, 3},    // fewer indices than most teams
		{7, 1000}, // many chunks under every schedule
	}
	for _, s := range allSchedules() {
		for _, n := range []int{1, 2, 3, 4, 7} {
			tm := New(n, WithSchedule(s))
			for _, r := range ranges {
				for rep := 0; rep < 5; rep++ {
					hits := make([]int32, r.hi)
					forEach(tm, r.lo, r.hi, func(i int) { atomic.AddInt32(&hits[i], 1) })
					for i := 0; i < r.lo; i++ {
						if hits[i] != 0 {
							t.Fatalf("%v n=%d [%d,%d): index %d below range touched", s, n, r.lo, r.hi, i)
						}
					}
					for i := r.lo; i < r.hi; i++ {
						if hits[i] != 1 {
							t.Fatalf("%v n=%d [%d,%d) rep %d: index %d hit %d times",
								s, n, r.lo, r.hi, rep, i, hits[i])
						}
					}
				}
			}
			tm.Close()
		}
	}
}

// TestScheduleMultipleLoopsPerRegion: several work-sharing loops inside
// one region body take consecutive cursor slots; their chunks must not
// bleed into each other. Up to loopSlots loops may run with no barrier
// at all; past that the ring wraps and loops need a barrier between
// reuses of a slot, so the second half of the region interleaves
// barriers and crosses the ring boundary.
func TestScheduleMultipleLoopsPerRegion(t *testing.T) {
	for _, s := range []Schedule{Dynamic, Guided, Stealing} {
		tm := New(4, WithSchedule(s))
		const loops, span = loopSlots + 8, 257
		hits := make([][]int32, loops)
		for l := range hits {
			hits[l] = make([]int32, span)
		}
		tm.Run(func(id int) {
			// Unbarriered burst: exactly the loopSlots concurrent loops
			// the ring is documented to support.
			for l := 0; l < loopSlots; l++ {
				for it := tm.Loop(id, 0, span); it.Next(); {
					for i := it.Lo; i < it.Hi; i++ {
						atomic.AddInt32(&hits[l][i], 1)
					}
				}
			}
			// Past the ring: a barrier per loop guarantees no straggler
			// still holds the slot being reused.
			for l := loopSlots; l < loops; l++ {
				tm.BarrierID(id)
				for it := tm.Loop(id, 0, span); it.Next(); {
					for i := it.Lo; i < it.Hi; i++ {
						atomic.AddInt32(&hits[l][i], 1)
					}
				}
			}
		})
		tm.Close()
		for l := range hits {
			for i, h := range hits[l] {
				if h != 1 {
					t.Fatalf("%v loop %d index %d hit %d times", s, l, i, h)
				}
			}
		}
	}
}

// TestScheduleForBlockBitIdenticalToStatic: an element-wise stencil over
// Loop chunks writes the exact same bytes under every schedule, because
// scheduling moves chunks between workers without changing which chunk
// owns which index.
func TestScheduleForBlockBitIdenticalToStatic(t *testing.T) {
	const span = 1203
	in := make([]float64, span)
	x := 0.7
	for i := range in {
		x = x*1.0001 + 0.013
		in[i] = x
	}
	run := func(s Schedule, n int) []float64 {
		out := make([]float64, span)
		tm := New(n, WithSchedule(s))
		defer tm.Close()
		forBlock(tm, 1, span-1, func(blo, bhi int) {
			for i := blo; i < bhi; i++ {
				out[i] = 0.5*in[i-1] + in[i]/3.0 + 0.25*in[i+1]
			}
		})
		return out
	}
	for _, n := range []int{2, 3, 5} {
		want := run(Static, n)
		for _, s := range []Schedule{Dynamic, Guided, Stealing} {
			got := run(s, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v n=%d: out[%d] = %v, static = %v", s, n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestScheduleReduceSumBitIdenticalToStatic: reductions always chunk by
// the static blocks and land partials in block-indexed slots, so the
// float64 total is bit-identical to the static schedule regardless of
// which worker ran which block. The values are chosen so a different
// summation association would actually change the rounding.
func TestScheduleReduceSumBitIdenticalToStatic(t *testing.T) {
	vals := make([]float64, 4096)
	x := 0.5
	for i := range vals {
		x = x*1.000301 + 0.125
		if x > 1e6 {
			x *= 1e-6
		}
		vals[i] = x
	}
	body := func(blo, bhi int) float64 {
		s := 0.0
		for i := blo; i < bhi; i++ {
			s += vals[i]
		}
		return s
	}
	for _, n := range []int{2, 4, 7} {
		tmStatic := New(n, WithSchedule(Static))
		want := reduceSum(tmStatic, 0, len(vals), body)
		tmStatic.Close()
		for _, s := range []Schedule{Dynamic, Guided, Stealing} {
			tm := New(n, WithSchedule(s))
			for rep := 0; rep < 10; rep++ {
				if got := reduceSum(tm, 0, len(vals), body); got != want {
					t.Fatalf("%v n=%d rep %d: ReduceSum = %v, static = %v", s, n, rep, got, want)
				}
			}
			tm.Close()
		}
	}
}

// TestScheduleCancelledTeamSkipsLoops: the cancellation semantics of a
// region are schedule-independent — a cancelled team never runs a body
// and a reduction returns 0.
func TestScheduleCancelledTeamSkipsLoops(t *testing.T) {
	for _, s := range allSchedules() {
		tm := New(3, WithSchedule(s))
		tm.Cancel(errors.New("stop"))
		var ran atomic.Bool
		forEach(tm, 0, 100, func(i int) { ran.Store(true) })
		forBlock(tm, 0, 100, func(blo, bhi int) { ran.Store(true) })
		got := reduceSum(tm, 0, 100, func(blo, bhi int) float64 { ran.Store(true); return 1 })
		tm.Close()
		if ran.Load() {
			t.Fatalf("%v: a loop body ran on a cancelled team", s)
		}
		if got != 0 {
			t.Fatalf("%v: ReduceSum on cancelled team = %v, want 0", s, got)
		}
	}
}

// TestScheduleMidFlightCancelReturnsZero: a body cancelling the team
// while chunks are still being dealt must yield 0 from PartialSum under
// every schedule, not a mix of fresh and stale partials.
func TestScheduleMidFlightCancelReturnsZero(t *testing.T) {
	for _, s := range allSchedules() {
		tm := New(2, WithSchedule(s))
		if got := reduceSum(tm, 0, 2, func(blo, bhi int) float64 { return 1000 }); got != 2000 {
			t.Fatalf("%v: seed ReduceSum = %v, want 2000", s, got)
		}
		got := reduceSum(tm, 0, 2, func(blo, bhi int) float64 {
			tm.Cancel(errors.New("mid-region stop"))
			return 1
		})
		tm.Close()
		if got != 0 {
			t.Fatalf("%v: mid-flight-cancelled ReduceSum = %v, want 0", s, got)
		}
	}
}

// TestScheduleWorkerPanicUnwinds: a panic inside a scheduled chunk must
// surface as a *PanicError and leave the team reusable, exactly like
// the static path — the cursor/deque state of the dead loop must not
// wedge the next region.
func TestScheduleWorkerPanicUnwinds(t *testing.T) {
	for _, s := range []Schedule{Dynamic, Guided, Stealing} {
		tm := New(4, WithSchedule(s))
		pe := runRecovered(tm, func(id int) {
			for it := tm.Loop(id, 0, 1000); it.Next(); {
				if it.Lo <= 500 && 500 < it.Hi {
					panic("chunk boom")
				}
			}
		})
		if pe == nil {
			t.Fatalf("%v: worker panic did not surface", s)
		}
		// The team must still schedule correctly after the failure.
		hits := make([]int32, 300)
		forEach(tm, 0, len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
		tm.Close()
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("%v: post-panic loop index %d hit %d times", s, i, h)
			}
		}
	}
}

// TestStealingRecordsSteals: with one worker hogging the clock the
// other must take chunks from its deque, visible in the probe counters.
func TestStealingRecordsSteals(t *testing.T) {
	rec := NewProbe(2, nil)
	tm := New(2, WithSchedule(Stealing), WithProbe(rec))
	defer tm.Close()
	var slow atomic.Bool
	forEach(tm, 0, 64, func(i int) {
		// Worker 0 owns the front chunks; make the very first index slow
		// so the other worker drains both deques meanwhile.
		if i == 0 && slow.CompareAndSwap(false, true) {
			time.Sleep(20 * time.Millisecond)
		}
	})
	st := rec.Snapshot()
	var chunks, steals uint64
	for id := 0; id < 2; id++ {
		chunks += st.Chunks[id]
		steals += st.Steals[id]
	}
	if chunks == 0 {
		t.Fatal("stealing schedule claimed no chunks")
	}
	if steals == 0 {
		t.Fatal("no steal recorded despite a stalled owner")
	}
}

// TestParseScheduleRoundTrip: every advertised name parses to a
// schedule that spells itself the same way, the empty string stays
// static (unset config fields keep the historical default), and an
// unknown name — including the deleted "auto" — is an error.
func TestParseScheduleRoundTrip(t *testing.T) {
	for _, name := range ScheduleNames() {
		s, err := ParseSchedule(name)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", name, err)
		}
		if s.String() != name {
			t.Fatalf("ParseSchedule(%q).String() = %q", name, s.String())
		}
	}
	if s, err := ParseSchedule(""); err != nil || s != Static {
		t.Fatalf("ParseSchedule(\"\") = %v, %v; want Static", s, err)
	}
	for _, name := range []string{"round-robin", "auto"} {
		if _, err := ParseSchedule(name); err == nil {
			t.Fatalf("ParseSchedule accepted the unknown name %q", name)
		}
	}
}

// TestBlockRejectsOutOfRangeID: Block must panic on an id outside
// [0, parts) instead of silently returning a bogus (possibly
// overlapping) range — the guard that turns a mis-sized caller into a
// crash at the fault, not a corrupted array far away.
func TestBlockRejectsOutOfRangeID(t *testing.T) {
	for _, id := range []int{-1, 4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Block(id=%d, parts=4) did not panic", id)
				}
			}()
			Block(0, 10, 4, id)
		}()
	}
	// Edge ids are legal and must still partition exactly.
	if lo, hi := Block(0, 10, 4, 0); lo != 0 || hi != 3 {
		t.Fatalf("Block first piece = [%d,%d)", lo, hi)
	}
	if lo, hi := Block(0, 10, 4, 3); lo != 8 || hi != 10 {
		t.Fatalf("Block last piece = [%d,%d)", lo, hi)
	}
	// Inverted ranges clamp to empty rather than panicking.
	if lo, hi := Block(10, 0, 4, 0); lo != hi {
		t.Fatalf("Block on inverted range = [%d,%d), want empty", lo, hi)
	}
}

// TestReduceSumSizeOneMidFlightCancel: a size-1 team's reduction must
// not return the body's partial when the body cancelled the team — the
// dispatched path returns 0, and size 1 must match.
func TestReduceSumSizeOneMidFlightCancel(t *testing.T) {
	tm := New(1)
	defer tm.Close()
	got := reduceSum(tm, 0, 10, func(blo, bhi int) float64 {
		tm.Cancel(errors.New("stop from inside"))
		return 42
	})
	if got != 0 {
		t.Fatalf("size-1 mid-flight-cancelled ReduceSum = %v, want 0", got)
	}
	if !tm.Cancelled() {
		t.Fatal("Cancelled() = false after in-body Cancel")
	}
}

// TestScheduleLongRegionMatchesStatic: a fused region runs hundreds of
// worksharing loops, so loop instances outnumber the cursor ring many
// times over and (before instances were counted over the team's life)
// outran an 8-bit per-region ordinal. One region of 1,000 Loops and
// 1,000 ReduceBlocks, a barrier every loopSlots instances, must write
// the same array and the same reductions, bit for bit, as static.
func TestScheduleLongRegionMatchesStatic(t *testing.T) {
	const loops, span = 1000, 37
	run := func(n int, s Schedule) (out []float64, sums []float64) {
		tm := New(n, WithSchedule(s))
		defer tm.Close()
		out = make([]float64, loops*span)
		part := make([]float64, loops*n)
		tm.Run(func(id int) {
			const burst = loopSlots / 2 // two instances per iteration
			for first := 0; first < loops; first += burst {
				tm.BarrierID(id)
				for l := first; l < first+burst && l < loops; l++ {
					row := out[l*span : (l+1)*span]
					for it := tm.Loop(id, 0, span); it.Next(); {
						for i := it.Lo; i < it.Hi; i++ {
							row[i] = 1 / float64(l*span+i+1)
						}
					}
					for it := tm.ReduceBlocks(id, l, l+span); it.Next(); {
						acc := 0.0
						for i := it.Lo; i < it.Hi; i++ {
							acc += 1 / float64(i+3)
						}
						part[l*n+it.Chunk()] = acc
					}
				}
			}
		})
		sums = make([]float64, loops)
		for l := range sums {
			for c := 0; c < n; c++ {
				sums[l] += part[l*n+c]
			}
		}
		return out, sums
	}
	for _, n := range []int{2, 3, 7} {
		wantOut, wantSums := run(n, Static)
		for _, s := range []Schedule{Dynamic, Guided, Stealing} {
			out, sums := run(n, s)
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(wantOut[i]) {
					t.Fatalf("%v n=%d: out[%d] = %v, static wrote %v", s, n, i, out[i], wantOut[i])
				}
			}
			for l := range sums {
				if math.Float64bits(sums[l]) != math.Float64bits(wantSums[l]) {
					t.Fatalf("%v n=%d: reduction %d = %v, static gives %v", s, n, l, sums[l], wantSums[l])
				}
			}
		}
	}
}
