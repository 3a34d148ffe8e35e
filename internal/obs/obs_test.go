package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotAndImbalance(t *testing.T) {
	r := New(4)
	r.IncRegion()
	r.IncRegion()
	r.AddBusy(0, 40*time.Millisecond)
	for id := 1; id < 4; id++ {
		r.AddBusy(id, 10*time.Millisecond)
	}
	r.AddWait(1, 5*time.Millisecond)
	r.AddWait(-1, 2*time.Millisecond) // unattributed still aggregates
	r.AddJoin(3 * time.Millisecond)
	r.IncCancel()
	r.IncPanic()

	s := r.Snapshot()
	if s.Regions != 2 || s.Cancellations != 1 || s.Panics != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.BarrierWaits != 2 || s.BarrierWait != 7*time.Millisecond {
		t.Fatalf("aggregate wait wrong: waits=%d wait=%v", s.BarrierWaits, s.BarrierWait)
	}
	if s.Wait[1] != 5*time.Millisecond {
		t.Fatalf("worker 1 wait = %v", s.Wait[1])
	}
	if s.JoinWait != 3*time.Millisecond {
		t.Fatalf("join wait = %v", s.JoinWait)
	}
	// mean busy = 70ms/4 = 17.5ms, max = 40ms -> ratio 40/17.5.
	want := 40.0 / 17.5
	if got := s.Imbalance(); got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("imbalance = %v, want %v", got, want)
	}
	if s.MaxBusy() != 40*time.Millisecond || s.MinBusy() != 10*time.Millisecond {
		t.Fatalf("max/min busy = %v/%v", s.MaxBusy(), s.MinBusy())
	}
	if !strings.Contains(s.String(), "imbalance") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestOutOfRangeWorkerDropped(t *testing.T) {
	r := New(2)
	r.AddBusy(5, time.Second)  // dropped, no panic
	r.AddBusy(-1, time.Second) // dropped, no panic
	r.AddWait(9, time.Second)  // aggregate only
	s := r.Snapshot()
	if s.Busy[0] != 0 || s.Busy[1] != 0 {
		t.Fatalf("out-of-range busy leaked: %+v", s.Busy)
	}
	if s.BarrierWait != time.Second {
		t.Fatalf("aggregate wait = %v, want 1s", s.BarrierWait)
	}
}

func TestImbalanceEmpty(t *testing.T) {
	if got := New(3).Snapshot().Imbalance(); got != 0 {
		t.Fatalf("imbalance with no busy time = %v, want 0", got)
	}
}

// TestRecorderConcurrent hammers one recorder from many goroutines;
// under -race this is the lock-freedom regression test.
func TestRecorderConcurrent(t *testing.T) {
	r := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.IncRegion()
				r.AddBusy(w, time.Microsecond)
				r.AddWait(w, time.Microsecond)
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Regions != 8000 {
		t.Fatalf("regions = %d, want 8000", s.Regions)
	}
	for w := 0; w < 8; w++ {
		if s.Busy[w] != time.Millisecond {
			t.Fatalf("worker %d busy = %v, want 1ms", w, s.Busy[w])
		}
	}
}

// TestSnapshotZeroRegions pins the edge case of a recorder that never
// saw a region: every aggregate is zero (not NaN), the busy extrema
// are zero, and the rendering helpers still produce output.
func TestSnapshotZeroRegions(t *testing.T) {
	s := New(3).Snapshot()
	if s.Regions != 0 || s.BarrierWaits != 0 || s.BarrierWait != 0 || s.JoinWait != 0 {
		t.Fatalf("fresh recorder has nonzero aggregates: %+v", s)
	}
	if got := s.Imbalance(); got != 0 {
		t.Fatalf("imbalance = %v, want 0 (not NaN)", got)
	}
	if s.MaxBusy() != 0 || s.MinBusy() != 0 {
		t.Fatalf("busy extrema = %v/%v, want 0/0", s.MaxBusy(), s.MinBusy())
	}
	if s.String() == "" {
		t.Fatal("String() of an empty snapshot is empty")
	}
}
