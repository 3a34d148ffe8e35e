package team

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"npbgo/internal/fault"
)

// runRecovered invokes tm.Run and returns the *PanicError it re-raised,
// or nil if the region completed.
func runRecovered(tm *Team, fn func(int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			var ok bool
			if pe, ok = v.(*PanicError); !ok {
				panic(v)
			}
		}
	}()
	tm.Run(fn)
	return nil
}

func TestWorkerPanicSurfacesAsPanicError(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	pe := runRecovered(tm, func(id int) {
		if id == 2 {
			panic("boom")
		}
		// The other three workers park here; without barrier poisoning
		// this region would deadlock.
		tm.BarrierID(id)
	})
	if pe == nil {
		t.Fatal("worker panic did not surface")
	}
	if pe.ID != 2 {
		t.Fatalf("PanicError.ID = %d, want 2", pe.ID)
	}
	if pe.Value != "boom" {
		t.Fatalf("PanicError.Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "robust_test") {
		t.Fatalf("stack not captured at panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "worker 2") {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

func TestTeamUsableAfterFailedRegion(t *testing.T) {
	tm := New(3)
	defer tm.Close()
	if pe := runRecovered(tm, func(id int) {
		if id == 1 {
			panic("first region fails")
		}
		tm.BarrierID(id)
	}); pe == nil {
		t.Fatal("expected failure in first region")
	}
	// The team must have rejoined cleanly: a fresh region runs on all
	// workers and the barrier works again.
	ran := make(chan int, 3)
	tm.Run(func(id int) {
		tm.BarrierID(id)
		ran <- id
	})
	if len(ran) != 3 {
		t.Fatalf("second region ran on %d workers, want 3", len(ran))
	}
}

func TestCloseAfterFailedRegionDoesNotHang(t *testing.T) {
	tm := New(4)
	runRecovered(tm, func(id int) {
		if id == 3 {
			panic("die")
		}
		tm.BarrierID(id)
	})
	closed := make(chan struct{})
	go func() {
		tm.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung after failed region")
	}
}

func TestSerialTeamPanicIsTyped(t *testing.T) {
	tm := New(1)
	defer tm.Close()
	pe := runRecovered(tm, func(id int) { panic("inline") })
	if pe == nil || pe.ID != 0 || pe.Value != "inline" {
		t.Fatalf("serial panic not converted: %+v", pe)
	}
}

// cause returns the reason the team was cancelled, nil if it was not.
func cause(tm *Team) error { return tm.takeFailure() }

// The TestRunCtx tests run a region the way every kernel does: Run on a
// team whose context WatchContext watches (kernel.Env.Team).

func TestRunCtxCancelUnparksWorkers(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer tm.WatchContext(ctx)()
	done := make(chan struct{})
	go func() {
		defer close(done)
		tm.Run(func(id int) {
			if id != 0 {
				// The master never arrives: workers 1..3 park here until
				// the context poisons the barrier.
				// Deliberately unbalanced to exercise barrier poisoning.
				tm.BarrierID(id)
			}
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
		if err := cause(tm); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancellation reason = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not unpark workers")
	}
	if !tm.Cancelled() {
		t.Fatal("team not marked cancelled")
	}
}

func TestRunCtxDeadline(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	defer tm.WatchContext(ctx)()
	tm.Run(func(id int) {
		if id != 0 {
			// Deliberately unbalanced to exercise the deadline path.
			tm.BarrierID(id) // parked until the deadline fires
		}
	})
	if err := cause(tm); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancellation reason = %v, want DeadlineExceeded", err)
	}
}

func TestCancelledTeamSkipsRegions(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	tm.Cancel(nil)
	ran := false
	tm.Run(func(id int) { ran = true }) // every worker writes the same value
	if ran {
		t.Fatal("region ran on a cancelled team")
	}
	if err := cause(tm); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation reason = %v, want context.Canceled", err)
	}
}

// TestRunCtxExpiredContextSkipsRegion: watching a context that has
// already expired cancels the team; once stop has returned, the
// cancellation has landed and a region is skipped.
func TestRunCtxExpiredContextSkipsRegion(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tm.WatchContext(ctx)()
	ran := false
	tm.Run(func(int) { ran = true }) // every worker writes the same value
	if ran {
		t.Fatal("region ran under an already-expired context")
	}
	if err := cause(tm); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation reason = %v, want context.Canceled", err)
	}
}

// TestRunCtxSuccess: a region under a live context runs on every worker,
// and a context cancelled after stop no longer reaches the team.
func TestRunCtxSuccess(t *testing.T) {
	tm := New(3)
	defer tm.Close()
	ctx, cancel := context.WithCancel(context.Background())
	stop := tm.WatchContext(ctx)
	hits := make(chan int, 3)
	tm.Run(func(id int) { hits <- id })
	stop()
	cancel()
	if len(hits) != 3 {
		t.Fatalf("ran on %d workers", len(hits))
	}
	if tm.Cancelled() {
		t.Fatal("a context cancelled after stop cancelled the team")
	}
}

func TestBlockGuardsBadParts(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("Block(parts=0) did not panic")
		}
		if !strings.Contains(v.(string), "parts 0 < 1") {
			t.Fatalf("panic message %q not descriptive", v)
		}
	}()
	Block(0, 10, 0, 0)
}

func TestInjectedRegionPanicIsIsolated(t *testing.T) {
	fault.Activate(fault.Rule{Site: "team.region", Kind: fault.KindPanic})
	defer fault.Reset()
	tm := New(4)
	defer tm.Close()
	pe := runRecovered(tm, func(id int) { tm.BarrierID(id) })
	if pe == nil {
		t.Fatal("injected panic not surfaced")
	}
	if _, ok := pe.Value.(fault.InjectedPanic); !ok {
		t.Fatalf("panic value %v (%T), want fault.InjectedPanic", pe.Value, pe.Value)
	}
	// The rule fired once; the team must be healthy again.
	tm.Run(func(id int) { tm.BarrierID(id) })
}

func TestMultipleWorkerPanicsCounted(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	pe := runRecovered(tm, func(id int) {
		panic(id) // every worker panics
	})
	if pe == nil {
		t.Fatal("no failure surfaced")
	}
	if pe.Others != 3 {
		t.Fatalf("Others = %d, want 3", pe.Others)
	}
}

// settledGoroutines waits for the goroutine count to fall back to base
// (exiting workers and fired context callbacks take a moment) and
// returns the last count seen.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// within fails the test if fn has not returned after d — the shape of a
// token wait no poison reaches.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// sweep is one forward pipelined sweep of four stages.
func sweep(p *Pipeline) func(int) {
	return func(id int) {
		for k := 0; k < 4; k++ {
			p.Wait(id)
			p.Post(id)
		}
	}
}

// TestPipelineWaitUnwindsOnPredecessorPanic: worker 0 dies before its
// first Post while worker 1 waits for that token. The wait must unwind
// with the region instead of holding Run (and then Close) forever.
func TestPipelineWaitUnwindsOnPredecessorPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	tm := New(2)
	p := tm.NewPipeline(4)
	var pe *PanicError
	within(t, time.Second, "Run with a dead predecessor", func() {
		pe = runRecovered(tm, func(id int) {
			if id == 0 {
				panic("before the first Post")
			}
			p.Wait(id)
		})
	})
	if pe == nil || pe.ID != 0 {
		t.Fatalf("PanicError = %+v, want worker 0's", pe)
	}
	p.Drain()
	tm.Run(sweep(p)) // the team and the pipeline are usable again
	within(t, time.Second, "Close", tm.Close)
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines left behind", n-base)
	}
}

// TestPipelineWaitUnwindsOnCancel: the predecessor never posts and
// Cancel arrives from outside the region.
func TestPipelineWaitUnwindsOnCancel(t *testing.T) {
	base := runtime.NumGoroutine()
	tm := New(2)
	p := tm.NewPipeline(4)
	go func() {
		time.Sleep(20 * time.Millisecond) // let worker 1 park in Wait first
		tm.Cancel(errTestStop)
	}()
	within(t, time.Second, "Run under Cancel", func() {
		tm.Run(func(id int) { p.Wait(id) })
	})
	if err := cause(tm); !errors.Is(err, errTestStop) {
		t.Fatalf("cancellation reason = %v, want the Cancel reason", err)
	}
	within(t, time.Second, "Close", tm.Close)
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines left behind", n-base)
	}
}

// TestPipelineWaitUnwindsOnDeadline: a watched deadline fires mid-sweep,
// with worker 0 stalled inside a stage and worker 1 waiting on it.
func TestPipelineWaitUnwindsOnDeadline(t *testing.T) {
	base := runtime.NumGoroutine()
	tm := New(2)
	p := tm.NewPipeline(4)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	stop := tm.WatchContext(ctx)
	within(t, time.Second, "Run past its deadline", func() {
		tm.Run(func(id int) {
			for k := 0; k < 4; k++ {
				p.Wait(id)
				for id == 0 && k == 1 && !tm.Cancelled() {
					time.Sleep(time.Millisecond) // the stalled stage
				}
				p.Post(id)
			}
		})
	})
	stop()
	if err := cause(tm); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancellation reason = %v, want DeadlineExceeded", err)
	}
	within(t, time.Second, "Close", tm.Close)
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines left behind", n-base)
	}
}
