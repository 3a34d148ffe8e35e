package team

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecorderCountsRegionsAndBusy: every region, on a size-1 team as on
// a dispatched one, is counted and charges per-worker busy time.
func TestRecorderCountsRegionsAndBusy(t *testing.T) {
	for _, n := range []int{1, 4} {
		rec := NewProbe(n, nil)
		tm := New(n, WithProbe(rec))
		tm.Run(func(id int) { time.Sleep(time.Millisecond) })
		forEach(tm, 0, 8, func(i int) {})
		forBlock(tm, 0, 8, func(blo, bhi int) {})
		_ = reduceSum(tm, 0, 8, func(blo, bhi int) float64 { return 1 })
		tm.Close()

		s := rec.Snapshot()
		if s.Regions != 4 {
			t.Fatalf("n=%d: regions = %d, want 4", n, s.Regions)
		}
		if s.Workers != n {
			t.Fatalf("n=%d: workers = %d", n, s.Workers)
		}
		for id, b := range s.Busy {
			if b <= 0 {
				t.Fatalf("n=%d: worker %d busy = %v, want > 0", n, id, b)
			}
		}
		if imb := s.Imbalance(); imb < 1 {
			t.Fatalf("n=%d: imbalance = %v, want >= 1", n, imb)
		}
	}
}

// TestRecorderBarrierWaitPerWorker: a deliberately skewed region (one
// slow worker) must show up as barrier wait on the fast workers when
// they synchronize with BarrierID.
func TestRecorderBarrierWaitPerWorker(t *testing.T) {
	const n = 4
	rec := NewProbe(n, nil)
	tm := New(n, WithProbe(rec))
	defer tm.Close()
	tm.Run(func(id int) {
		if id == 0 {
			time.Sleep(20 * time.Millisecond) // the laggard
		}
		tm.BarrierID(id)
	})
	s := rec.Snapshot()
	if s.BarrierWaits == 0 || s.BarrierWait <= 0 {
		t.Fatalf("no aggregate barrier wait recorded: %+v", s)
	}
	if s.Wait[0] >= 10*time.Millisecond {
		t.Fatalf("laggard charged %v of wait; it should wait least", s.Wait[0])
	}
	fast := 0
	for id := 1; id < n; id++ {
		if s.Wait[id] >= 10*time.Millisecond {
			fast++
		}
	}
	if fast == 0 {
		t.Fatalf("no fast worker charged barrier wait: %+v", s.Wait)
	}
}

// TestRecorderCancelAndPanicCounts: cancellations are counted once
// (the flag is sticky), each panicking worker increments the panic
// counter, and its time up to the panic is still charged as busy.
func TestRecorderCancelAndPanicCounts(t *testing.T) {
	rec := NewProbe(2, nil)
	tm := New(2, WithProbe(rec))
	defer tm.Close()

	pe := runRecovered(tm, func(id int) {
		if id == 0 {
			time.Sleep(time.Millisecond)
			panic("boom")
		}
		tm.BarrierID(id)
	})
	if pe == nil {
		t.Fatal("expected a PanicError")
	}
	tm.Cancel(errors.New("stop"))
	tm.Cancel(errors.New("stop again")) // sticky: not a second cancellation
	s := rec.Snapshot()
	if s.Panics != 1 {
		t.Fatalf("panics = %d, want 1", s.Panics)
	}
	if s.Cancellations != 1 {
		t.Fatalf("cancellations = %d, want 1", s.Cancellations)
	}
	if s.Busy[0] < time.Millisecond {
		t.Fatalf("panicking worker charged %v busy, want at least 1ms", s.Busy[0])
	}
}

// TestImbalanceDetectsSkew reproduces the §5.2 diagnosis in miniature:
// all the work on one worker pushes the imbalance ratio toward the team
// size, while balanced work keeps it near 1.
func TestImbalanceDetectsSkew(t *testing.T) {
	const n = 4
	rec := NewProbe(n, nil)
	tm := New(n, WithProbe(rec))
	defer tm.Close()
	tm.Run(func(id int) {
		if id == 1 {
			time.Sleep(30 * time.Millisecond)
		}
	})
	imb := rec.Snapshot().Imbalance()
	if imb < 2 {
		t.Fatalf("skewed region imbalance = %.2f, want well above 1", imb)
	}
}

// BenchmarkRegionObs measures the per-region dispatch cost with and
// without a probe attached — the probe's overhead budget is "near-zero
// when disabled, two clock reads per worker when enabled".
func BenchmarkRegionObs(b *testing.B) {
	for _, n := range []int{1, 4} {
		for _, obsOn := range []bool{false, true} {
			name := benchName(n)
			if obsOn {
				name += "/obs"
			} else {
				name += "/noobs"
			}
			b.Run(name, func(b *testing.B) {
				var opts []Option
				if obsOn {
					opts = append(opts, WithProbe(NewProbe(n, nil)))
				}
				tm := New(n, opts...)
				defer tm.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tm.Run(func(id int) {})
				}
			})
		}
	}
}

// BenchmarkBarrierObs measures the barrier cost with and without wait
// accounting.
func BenchmarkBarrierObs(b *testing.B) {
	for _, obsOn := range []bool{false, true} {
		name := "noobs"
		var opts []Option
		if obsOn {
			name = "obs"
			opts = append(opts, WithProbe(NewProbe(4, nil)))
		}
		b.Run(name, func(b *testing.B) {
			tm := New(4, opts...)
			defer tm.Close()
			b.ResetTimer()
			tm.Run(func(id int) {
				for i := 0; i < b.N; i++ {
					tm.BarrierID(id)
				}
			})
		})
	}
}

func TestSnapshotAndImbalance(t *testing.T) {
	p := NewProbe(4, nil)
	p.regions.Add(2)
	p.addBusy(0, 40*time.Millisecond)
	for id := 1; id < 4; id++ {
		p.addBusy(id, 10*time.Millisecond)
	}
	p.addWait(1, 5*time.Millisecond)
	p.addWait(2, 2*time.Millisecond)
	p.joinNs.Add(int64(3 * time.Millisecond))
	p.cancelled(errors.New("stop"))
	p.panicked(0)

	s := p.Snapshot()
	if s.Regions != 2 || s.Cancellations != 1 || s.Panics != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.BarrierWaits != 2 || s.BarrierWait != 7*time.Millisecond {
		t.Fatalf("aggregate wait wrong: waits=%d wait=%v", s.BarrierWaits, s.BarrierWait)
	}
	if s.Wait[1] != 5*time.Millisecond || s.Wait[2] != 2*time.Millisecond {
		t.Fatalf("worker 1, 2 waits = %v, %v", s.Wait[1], s.Wait[2])
	}
	if s.JoinWait != 3*time.Millisecond {
		t.Fatalf("join wait = %v", s.JoinWait)
	}
	// mean busy = 70ms/4 = 17.5ms, max = 40ms -> ratio 40/17.5.
	want := 40.0 / 17.5
	if got := s.Imbalance(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	if s.MaxBusy() != 40*time.Millisecond || slices.Min(s.Busy) != 10*time.Millisecond {
		t.Fatalf("max/min busy = %v/%v", s.MaxBusy(), slices.Min(s.Busy))
	}
	if !strings.Contains(s.String(), "imbalance") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestOutOfRangeWorkerDropped(t *testing.T) {
	p := NewProbe(2, nil)
	p.addBusy(5, time.Second)  // dropped, no panic
	p.addBusy(-1, time.Second) // dropped, no panic
	p.addWait(9, time.Second)  // aggregate only
	p.chunk(7, 1)              // dropped, no panic
	s := p.Snapshot()
	if s.Busy[0] != 0 || s.Busy[1] != 0 {
		t.Fatalf("out-of-range busy leaked: %+v", s.Busy)
	}
	if s.BarrierWait != time.Second {
		t.Fatalf("aggregate wait = %v, want 1s", s.BarrierWait)
	}
}

func TestImbalanceEmpty(t *testing.T) {
	if got := NewProbe(3, nil).Snapshot().Imbalance(); got != 0 {
		t.Fatalf("imbalance with no busy time = %v, want 0", got)
	}
}

// TestRecorderConcurrent hammers one probe from many goroutines; under
// -race this is the lock-freedom regression test.
func TestRecorderConcurrent(t *testing.T) {
	p := NewProbe(8, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				p.regions.Add(1)
				p.addBusy(w, time.Microsecond)
				p.addWait(w, time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		_ = p.Snapshot()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Regions != 8000 {
		t.Fatalf("regions = %d, want 8000", s.Regions)
	}
	for w := 0; w < 8; w++ {
		if s.Busy[w] != time.Millisecond {
			t.Fatalf("worker %d busy = %v, want 1ms", w, s.Busy[w])
		}
	}
}

// TestSnapshotZeroRegions pins the edge case of a probe that never saw
// a region: every aggregate is zero (not NaN), the busy extrema are
// zero, and the rendering helpers still produce output.
func TestSnapshotZeroRegions(t *testing.T) {
	s := NewProbe(3, nil).Snapshot()
	if s.Regions != 0 || s.BarrierWaits != 0 || s.BarrierWait != 0 || s.JoinWait != 0 {
		t.Fatalf("fresh probe has nonzero aggregates: %+v", s)
	}
	if got := s.Imbalance(); got != 0 {
		t.Fatalf("imbalance = %v, want 0 (not NaN)", got)
	}
	if s.MaxBusy() != 0 || slices.Min(s.Busy) != 0 {
		t.Fatalf("busy extrema = %v/%v, want 0/0", s.MaxBusy(), slices.Min(s.Busy))
	}
	if s.String() == "" {
		t.Fatal("String() of an empty snapshot is empty")
	}
}
