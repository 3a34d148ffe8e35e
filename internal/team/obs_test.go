package team

import (
	"errors"
	"testing"
	"time"

	"npbgo/internal/obs"
)

// TestRecorderCountsRegionsAndBusy: every region, on a size-1 team as on
// a dispatched one, is counted and charges per-worker busy time.
func TestRecorderCountsRegionsAndBusy(t *testing.T) {
	for _, n := range []int{1, 4} {
		rec := obs.New(n)
		tm := New(n, WithRecorder(rec))
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
	rec := obs.New(n)
	tm := New(n, WithRecorder(rec))
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
// (the flag is sticky) and each panicking worker increments the panic
// counter.
func TestRecorderCancelAndPanicCounts(t *testing.T) {
	rec := obs.New(2)
	tm := New(2, WithRecorder(rec))
	defer tm.Close()

	pe := runRecovered(tm, func(id int) {
		if id == 0 {
			panic("boom")
		}
		tm.Barrier()
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
}

// TestImbalanceDetectsSkew reproduces the §5.2 diagnosis in miniature:
// all the work on one worker pushes the imbalance ratio toward the team
// size, while balanced work keeps it near 1.
func TestImbalanceDetectsSkew(t *testing.T) {
	const n = 4
	rec := obs.New(n)
	tm := New(n, WithRecorder(rec))
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
// without a recorder attached — the obs layer's overhead budget is
// "near-zero when disabled, two clock reads per worker when enabled".
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
					opts = append(opts, WithRecorder(obs.New(n)))
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
			opts = append(opts, WithRecorder(obs.New(4)))
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
