package team

import (
	"errors"
	"sync"
	"testing"

	"npbgo/internal/perfcount"
)

// softwareSampler skips where even software perf events are
// unavailable (non-Linux stub builds); everywhere else it gives the
// team a real group-read path to sample.
func softwareSampler(t *testing.T, workers int) *perfcount.Sampler {
	t.Helper()
	pc, err := perfcount.NewSoftware(workers)
	if err != nil {
		var ue *perfcount.UnavailableError
		if !errors.As(err, &ue) {
			t.Fatalf("NewSoftware: error is %T, want *UnavailableError: %v", err, err)
		}
		t.Skipf("software counters unavailable here: %v", err)
	}
	return pc
}

// TestWithCountersSamplesRegions: a probe's sampler accumulates
// per-worker deltas as the team runs regions, and the workers' slots
// (1..n-1, bound by the worker goroutines) see their own time.
func TestWithCountersSamplesRegions(t *testing.T) {
	const n = 3
	pc := softwareSampler(t, n)
	tm := New(n, WithProbe(NewProbe(n, nil, pc)))
	defer func() { tm.Close(); pc.Close() }()
	for r := 0; r < 5; r++ {
		tm.Run(func(id int) {
			x := 1.0
			for i := 0; i < 300_000; i++ {
				x = x*1.0000001 + 0.5
			}
			_ = x
			tm.BarrierID(id)
		})
	}
	st := pc.Snapshot()
	// Slot 0 (the master) is unbound here — the run driver owns it — so
	// only worker slots are asserted.
	for id := 1; id < n; id++ {
		if st.PerWorker[id].TaskClockNs == 0 {
			t.Errorf("worker %d accumulated no task clock over 5 regions", id)
		}
	}
}

// TestCountersConcurrentSampling drives concurrent region start/stop
// sampling against concurrent snapshots under -race: workers sample
// their slots while another goroutine reads them, which is exactly the
// registry's live-expvar access pattern mid-run.
func TestCountersConcurrentSampling(t *testing.T) {
	const n = 4
	pc := softwareSampler(t, n)
	rec := NewProbe(n, nil, pc)
	tm := New(n, WithProbe(rec))
	defer func() { tm.Close(); pc.Close() }()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := rec.Snapshot()
				if s.Counters == nil {
					t.Error("probe snapshot lost its sampler's counters")
					return
				}
			}
		}
	}()
	for r := 0; r < 50; r++ {
		forEach(tm, 0, 4*n, func(i int) {
			x := 1.0
			for k := 0; k < 20_000; k++ {
				x = x*1.0000001 + 0.5
			}
			_ = x
		})
	}
	close(stop)
	wg.Wait()
}

// TestCountersNilDisabled: a probe without a sampler must behave exactly
// as before — the nil check is the whole disabled path.
func TestCountersNilDisabled(t *testing.T) {
	tm := New(2, WithProbe(NewProbe(2, nil, nil)))
	defer tm.Close()
	sum := reduceSum(tm, 0, 100, func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s++
		}
		return s
	})
	if sum != 100 {
		t.Fatalf("ReduceSum = %v, want 100", sum)
	}
}

// TestCountersSurvivePanic: a panicking region still charges its
// counter deltas (the RegionEnd defer registered before the recover
// defer), and the team remains usable.
func TestCountersSurvivePanic(t *testing.T) {
	const n = 2
	pc := softwareSampler(t, n)
	tm := New(n, WithProbe(NewProbe(n, nil, pc)))
	defer func() { tm.Close(); pc.Close() }()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected re-raised *PanicError")
			}
		}()
		tm.Run(func(id int) {
			if id == 1 {
				panic("boom")
			}
		})
	}()
	// The team must still run regions and sample after the failure.
	tm.Run(func(id int) {
		x := 1.0
		for i := 0; i < 100_000; i++ {
			x = x*1.0000001 + 0.5
		}
		_ = x
	})
	if st := pc.Snapshot(); st.PerWorker[1].TaskClockNs == 0 {
		t.Error("worker 1 charged no counters across panic and recovery regions")
	}
}
