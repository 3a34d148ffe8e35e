package team

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	rt "runtime/trace"
	"testing"
	"time"

	"npbgo/internal/trace"
)

var errTestStop = errors.New("test stop")

// traced runs play on a team of n workers whose probe has a tracer,
// with the runtime tracer on, and returns what the reader finds in the
// trace — which validates: spans paired and nested on every goroutine,
// every annotation inside the run's task.
func traced(t *testing.T, n int, play func(tm *Team)) *trace.File {
	t.Helper()
	tr := trace.New(context.Background(), "TEAM", n)
	func() {
		defer tr.Stop()
		tm := New(n, WithProbe(NewProbe(n, tr)))
		defer tm.Close()
		play(tm)
	}()
	if tr.Data == nil {
		t.Skip("another execution tracer is running; the run only annotated it")
	}
	path := filepath.Join(t.TempDir(), "team.trace")
	if err := os.WriteFile(path, tr.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := trace.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// worker returns worker id's track.
func worker(t *testing.T, f *trace.File, id int) trace.Track {
	t.Helper()
	for _, tk := range f.Tracks {
		if tk.Worker == id {
			return tk
		}
	}
	t.Fatalf("no track for worker %d in %v", id, f)
	return trace.Track{}
}

// TestTracerRecordsRegionsAndBlocks: every region is one Region span on
// the master's track and one Block span per worker, on a size-1 team as
// on a dispatched one.
func TestTracerRecordsRegionsAndBlocks(t *testing.T) {
	for _, n := range []int{1, 4} {
		f := traced(t, n, func(tm *Team) {
			tm.Run(func(id int) {})
			forEach(tm, 0, 8, func(i int) {})
			forBlock(tm, 0, 8, func(blo, bhi int) {})
			_ = reduceSum(tm, 0, 8, func(blo, bhi int) float64 { return 1 })
		})
		if got := worker(t, f, 0).Spans[trace.Region]; got != 4 {
			t.Fatalf("n=%d: master region spans = %d, want 4", n, got)
		}
		for id := 0; id < n; id++ {
			if got := worker(t, f, id).Spans[trace.Block]; got != 4 {
				t.Fatalf("n=%d: worker %d block spans = %d, want 4", n, id, got)
			}
		}
	}
}

// TestSizeOneRunAccounting: a size-1 team's region goes through the
// same accounting as a dispatched one — one region counted, the body's
// time charged to worker 0, and a region span enclosing one block span.
func TestSizeOneRunAccounting(t *testing.T) {
	var st *Stats
	tr := trace.New(context.Background(), "TEAM", 1)
	func() {
		defer tr.Stop()
		rec := NewProbe(1, tr)
		tm := New(1, WithProbe(rec))
		defer tm.Close()
		tm.Run(func(id int) { time.Sleep(time.Millisecond) })
		st = rec.Snapshot()
	}()
	if st.Regions != 1 || st.Busy[0] < time.Millisecond {
		t.Fatalf("regions = %d, busy = %v; want 1 region and >= 1ms busy", st.Regions, st.Busy[0])
	}
	if tr.Data == nil {
		t.Skip("another execution tracer is running; the run only annotated it")
	}
	path := filepath.Join(t.TempDir(), "team.trace")
	if err := os.WriteFile(path, tr.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := trace.Read(path)
	if err != nil {
		t.Fatal(err) // a block span not inside its region span fails here
	}
	if w := worker(t, f, 0); w.Spans[trace.Region] != 1 || w.Spans[trace.Block] != 1 || w.Busy < time.Millisecond {
		t.Fatalf("worker 0 = %+v, want one region, one block of >= 1ms", w)
	}
}

// TestTracerBarrierPairsShareGeneration: BarrierID is one Barrier span
// per worker per trip, arrival to release, so every worker of a trip
// records one, each on its own goroutine's track.
func TestTracerBarrierPairsShareGeneration(t *testing.T) {
	const n, trips = 3, 5
	f := traced(t, n, func(tm *Team) {
		tm.Run(func(id int) {
			for i := 0; i < trips; i++ {
				tm.BarrierID(id)
			}
		})
	})
	for id := 0; id < n; id++ {
		if got := worker(t, f, id).Spans[trace.Barrier]; got != trips {
			t.Fatalf("worker %d barrier spans = %d, want %d", id, got, trips)
		}
	}
}

// TestTracerAnonymousBarrierNotTraced: the unattributed Barrier() has
// no worker identity to land events on, so it must stay silent rather
// than corrupt a track.
func TestTracerAnonymousBarrierNotTraced(t *testing.T) {
	f := traced(t, 2, func(tm *Team) { tm.Run(func(id int) { tm.Barrier() }) })
	for _, tk := range f.Tracks {
		if tk.Spans[trace.Barrier] != 0 {
			t.Fatalf("track %+v recorded anonymous barrier spans", tk)
		}
	}
}

// TestTracerPanicAndPoisonedBarrierStayPaired: a worker panic is an
// instant inside its block span, and workers unwound from the poisoned
// barrier still close their barrier spans — the trace of a crashed
// region validates.
func TestTracerPanicAndPoisonedBarrierStayPaired(t *testing.T) {
	const n = 3
	var pe *PanicError
	f := traced(t, n, func(tm *Team) {
		pe = runRecovered(tm, func(id int) {
			if id == 0 {
				for tm.arrived.Load() < n-1 {
					runtime.Gosched() // until the others wait at the barrier
				}
				panic("boom")
			}
			tm.BarrierID(id)
		})
	})
	if pe == nil {
		t.Fatal("expected a PanicError")
	}
	if w := worker(t, f, 0); w.Marks[trace.Panic] != 1 || w.Spans[trace.Block] != 1 {
		t.Fatalf("worker 0 = %+v, want one panic inside one block", w)
	}
	for id := 1; id < n; id++ {
		if w := worker(t, f, id); w.Spans[trace.Barrier] != 1 || w.Spans[trace.Block] != 1 {
			t.Fatalf("worker %d = %+v, want one closed barrier span inside one block", id, w)
		}
	}
}

// TestTracerPipelineFastPathSilent: a token that is already posted is
// consumed on the fast path — a post instant on the sender, no wait
// span on the receiver.
func TestTracerPipelineFastPathSilent(t *testing.T) {
	f := traced(t, 2, func(tm *Team) {
		pipe := tm.NewPipeline(4)
		pipe.Post(0)
		pipe.Wait(1)
	})
	if got := worker(t, f, 0).Marks[trace.Post]; got != 1 {
		t.Fatalf("posts = %d, want 1", got)
	}
	for _, tk := range f.Tracks {
		if tk.Spans[trace.Pipeline] != 0 {
			t.Fatal("non-blocking receive recorded a wait span")
		}
	}
}

// TestTracerPipelineBlockingWaitRecorded: a receive that actually
// parks records a paired wait span, with its time, on the receiver's
// goroutine.
func TestTracerPipelineBlockingWaitRecorded(t *testing.T) {
	f := traced(t, 2, func(tm *Team) {
		pipe := tm.NewPipeline(4)
		done := make(chan struct{})
		go func() {
			time.Sleep(20 * time.Millisecond) // let Wait(1) park first
			pipe.Post(0)
			close(done)
		}()
		pipe.Wait(1)
		<-done
	})
	// The test's goroutine waited as worker 1; it is the master's track.
	if w := worker(t, f, 0); w.Spans[trace.Pipeline] != 1 || w.Wait < 10*time.Millisecond {
		t.Fatalf("receiver = %+v, want one pipeline span of about 20ms", w)
	}
}

// TestTracerCancelOnRuntimeTrack: a watcher-driven cancellation is
// asynchronous, so it lands on the watcher's goroutine, not a worker's,
// and only the first cancellation is an event.
func TestTracerCancelOnRuntimeTrack(t *testing.T) {
	f := traced(t, 2, func(tm *Team) {
		ctx, cancel := context.WithCancel(context.Background())
		stop := tm.WatchContext(ctx)
		cancel()
		stop()
		tm.Cancel(errTestStop) // sticky: not an event
	})
	cancels := 0
	for _, tk := range f.Tracks {
		if n := tk.Marks[trace.Cancel]; n > 0 {
			cancels += n
			if tk.Worker >= 0 {
				t.Fatalf("cancellation on worker %d's track", tk.Worker)
			}
		}
	}
	if cancels != 1 {
		t.Fatalf("cancel instants = %d, want exactly one", cancels)
	}
}

// withBenchTracer attaches a tracing probe for a benchmark, with the
// runtime tracer on and writing to io.Discard, so a long benchmark
// holds no trace in memory. It reports the annotations per op.
func withBenchTracer(b *testing.B, n int) Option {
	if rt.Start(io.Discard) == nil {
		b.Cleanup(rt.Stop)
	}
	tr := trace.New(context.Background(), "bench", n)
	b.Cleanup(func() {
		tr.Stop()
		b.ReportMetric(float64(tr.Events())/float64(b.N), "events/op")
	})
	return WithProbe(NewProbe(n, tr))
}

// BenchmarkRegionTrace measures per-region dispatch with and without a
// tracing probe — the disabled path's budget is one nil check, so
// notrace must match the plain-team numbers of BenchmarkRegionObs.
// (trace − notrace) / events per op is the cost of one annotation.
func BenchmarkRegionTrace(b *testing.B) {
	for _, n := range []int{1, 4} {
		for _, on := range []bool{false, true} {
			name := benchName(n)
			if on {
				name += "/trace"
			} else {
				name += "/notrace"
			}
			b.Run(name, func(b *testing.B) {
				var opts []Option
				if on {
					opts = append(opts, withBenchTracer(b, n))
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

// BenchmarkBarrierTrace measures the id-attributed barrier with and
// without annotations.
func BenchmarkBarrierTrace(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "notrace"
		if on {
			name = "trace"
		}
		b.Run(name, func(b *testing.B) {
			var opts []Option
			if on {
				opts = append(opts, withBenchTracer(b, 4))
			}
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
