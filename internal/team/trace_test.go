package team

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"npbgo/internal/trace"
)

var errTestStop = errors.New("test stop")

// withTracer attaches a probe that traces into tr.
func withTracer(tr *trace.Tracer) Option { return WithProbe(NewProbe(tr.Workers(), tr, nil)) }

// kindCount tallies one track's events by kind.
func kindCount(tk trace.Track) map[trace.Kind]int {
	m := map[trace.Kind]int{}
	for _, e := range tk.Events {
		m[e.Kind]++
	}
	return m
}

// TestTracerRecordsRegionsAndBlocks: every region produces one paired
// region span on the master track and one paired block span per worker,
// on a size-1 team as on a dispatched one.
func TestTracerRecordsRegionsAndBlocks(t *testing.T) {
	for _, n := range []int{1, 4} {
		tr := trace.New(n)
		tm := New(n, withTracer(tr))
		tm.Run(func(id int) {})
		forEach(tm, 0, 8, func(i int) {})
		forBlock(tm, 0, 8, func(blo, bhi int) {})
		_ = reduceSum(tm, 0, 8, func(blo, bhi int) float64 { return 1 })
		tm.Close()

		s := tr.Snapshot()
		master := kindCount(s.Tracks[n])
		if master[trace.KindRegionBegin] != 4 || master[trace.KindRegionEnd] != 4 {
			t.Fatalf("n=%d: master region events = %d/%d, want 4/4",
				n, master[trace.KindRegionBegin], master[trace.KindRegionEnd])
		}
		for id := 0; id < n; id++ {
			w := kindCount(s.Tracks[id])
			if w[trace.KindBlockBegin] != 4 || w[trace.KindBlockEnd] != 4 {
				t.Fatalf("n=%d: worker %d block events = %d/%d, want 4/4",
					n, id, w[trace.KindBlockBegin], w[trace.KindBlockEnd])
			}
		}
	}
}

// TestSizeOneRunAccounting: a size-1 team's region goes through the
// same accounting as a dispatched one — one region counted, the body's
// time charged to worker 0, and a region span enclosing one block span.
func TestSizeOneRunAccounting(t *testing.T) {
	tr := trace.New(1)
	rec := NewProbe(1, tr, nil)
	tm := New(1, WithProbe(rec))
	tm.Run(func(id int) { time.Sleep(time.Millisecond) })
	tm.Close()

	st := rec.Snapshot()
	if st.Regions != 1 || st.Busy[0] < time.Millisecond {
		t.Fatalf("regions = %d, busy = %v; want 1 region and >= 1ms busy", st.Regions, st.Busy[0])
	}
	s := tr.Snapshot()
	worker, master := s.Tracks[0].Events, s.Tracks[1].Events
	if len(master) != 2 || master[0].Kind != trace.KindRegionBegin || master[1].Kind != trace.KindRegionEnd {
		t.Fatalf("master events = %+v, want one RegionBegin/RegionEnd pair", master)
	}
	if len(worker) != 2 || worker[0].Kind != trace.KindBlockBegin || worker[1].Kind != trace.KindBlockEnd {
		t.Fatalf("worker 0 events = %+v, want one BlockBegin/BlockEnd pair", worker)
	}
	if !(master[0].TS <= worker[0].TS && worker[0].TS <= worker[1].TS && worker[1].TS <= master[1].TS) {
		t.Fatalf("block span %d..%d not inside region span %d..%d", worker[0].TS, worker[1].TS, master[0].TS, master[1].TS)
	}
}

// TestTracerBarrierPairsShareGeneration: BarrierID emits one
// arrive/release pair per worker per trip, and all workers of one trip
// carry the same generation — the correlation the exporter's flow
// arrows are built from.
func TestTracerBarrierPairsShareGeneration(t *testing.T) {
	const n, trips = 3, 5
	tr := trace.New(n)
	tm := New(n, withTracer(tr))
	defer tm.Close()
	tm.Run(func(id int) {
		for i := 0; i < trips; i++ {
			tm.BarrierID(id)
		}
	})
	s := tr.Snapshot()
	gens := map[uint64]int{}
	for id := 0; id < n; id++ {
		w := kindCount(s.Tracks[id])
		if w[trace.KindBarrierArrive] != trips || w[trace.KindBarrierRelease] != trips {
			t.Fatalf("worker %d barrier events = %d/%d, want %d/%d",
				id, w[trace.KindBarrierArrive], w[trace.KindBarrierRelease], trips, trips)
		}
		for _, e := range s.Tracks[id].Events {
			if e.Kind == trace.KindBarrierArrive {
				gens[e.ID]++
			}
		}
	}
	if len(gens) != trips {
		t.Fatalf("saw %d distinct generations, want %d", len(gens), trips)
	}
	for gen, count := range gens {
		if count != n {
			t.Fatalf("generation %d has %d arrivals, want %d", gen, count, n)
		}
	}
}

// TestTracerAnonymousBarrierNotTraced: the unattributed Barrier() has
// no worker identity to land events on, so it must stay silent rather
// than corrupt a track.
func TestTracerAnonymousBarrierNotTraced(t *testing.T) {
	const n = 2
	tr := trace.New(n)
	tm := New(n, withTracer(tr))
	defer tm.Close()
	tm.Run(func(id int) { tm.Barrier() })
	s := tr.Snapshot()
	for _, tk := range s.Tracks {
		kc := kindCount(tk)
		if kc[trace.KindBarrierArrive] != 0 || kc[trace.KindBarrierRelease] != 0 {
			t.Fatalf("track %q recorded anonymous barrier events: %v", tk.Name, kc)
		}
	}
}

// TestTracerPanicAndPoisonedBarrierStayPaired: a worker panic is an
// instant inside its block span, and workers unwound from the poisoned
// barrier still close their arrive spans — the exported file must
// validate even for a crashed region.
func TestTracerPanicAndPoisonedBarrierStayPaired(t *testing.T) {
	const n = 3
	tr := trace.New(n)
	tm := New(n, withTracer(tr))
	defer tm.Close()
	pe := runRecovered(tm, func(id int) {
		if id == 0 {
			panic("boom")
		}
		tm.BarrierID(id)
	})
	if pe == nil {
		t.Fatal("expected a PanicError")
	}
	s := tr.Snapshot()
	if kc := kindCount(s.Tracks[0]); kc[trace.KindPanic] != 1 {
		t.Fatalf("worker 0 panic instants = %d, want 1", kc[trace.KindPanic])
	}
	for id := 0; id < n; id++ {
		kc := kindCount(s.Tracks[id])
		if kc[trace.KindBarrierArrive] != kc[trace.KindBarrierRelease] {
			t.Fatalf("worker %d: %d arrives vs %d releases — poisoned unwind leaked a span",
				id, kc[trace.KindBarrierArrive], kc[trace.KindBarrierRelease])
		}
		if kc[trace.KindBlockBegin] != kc[trace.KindBlockEnd] {
			t.Fatalf("worker %d: %d block begins vs %d ends", id,
				kc[trace.KindBlockBegin], kc[trace.KindBlockEnd])
		}
	}
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf, "crashed"); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Validate(buf.Bytes()); err != nil {
		t.Fatalf("crashed-region trace fails validation: %v", err)
	}
}

// TestTracerPipelineFastPathSilent: a token that is already posted is
// consumed on the select fast path — a signal instant on the sender,
// no wait span on the receiver.
func TestTracerPipelineFastPathSilent(t *testing.T) {
	tr := trace.New(2)
	tm := New(2, withTracer(tr))
	defer tm.Close()
	pipe := tm.NewPipeline(4)
	pipe.Post(0)
	pipe.Wait(1)
	s := tr.Snapshot()
	if kc := kindCount(s.Tracks[0]); kc[trace.KindPipeSignal] != 1 {
		t.Fatalf("worker 0 posts = %d, want 1", kc[trace.KindPipeSignal])
	}
	if kc := kindCount(s.Tracks[1]); kc[trace.KindPipeWaitBegin] != 0 {
		t.Fatal("non-blocking receive recorded a wait span")
	}
}

// TestTracerPipelineBlockingWaitRecorded: a receive that actually
// parks records a paired wait span on the receiver's track.
func TestTracerPipelineBlockingWaitRecorded(t *testing.T) {
	tr := trace.New(2)
	tm := New(2, withTracer(tr))
	defer tm.Close()
	pipe := tm.NewPipeline(4)
	done := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond) // let Wait(1) park first
		pipe.Post(0)
		close(done)
	}()
	pipe.Wait(1)
	<-done
	s := tr.Snapshot()
	w1 := kindCount(s.Tracks[1])
	if w1[trace.KindPipeWaitBegin] != 1 || w1[trace.KindPipeWaitEnd] != 1 {
		t.Fatalf("worker 1 wait spans = %d begins, %d ends; want 1/1",
			w1[trace.KindPipeWaitBegin], w1[trace.KindPipeWaitEnd])
	}
}

// TestTracerCancelOnRuntimeTrack: the watcher-driven cancellation is
// asynchronous, so it must land on the runtime track, with the reason.
func TestTracerCancelOnRuntimeTrack(t *testing.T) {
	tr := trace.New(2)
	tm := New(2, withTracer(tr))
	defer tm.Close()
	tm.Cancel(errTestStop)
	tm.Cancel(errTestStop) // sticky: only the first is an event
	s := tr.Snapshot()
	rt := s.Tracks[3]
	if len(rt.Events) != 1 || rt.Events[0].Kind != trace.KindCancel {
		t.Fatalf("runtime track = %+v, want exactly one cancel", rt.Events)
	}
	if rt.Events[0].Name != errTestStop.Error() {
		t.Fatalf("cancel reason = %q, want %q", rt.Events[0].Name, errTestStop)
	}
}

// BenchmarkRegionTrace measures per-region dispatch with and without a
// tracing probe — the disabled path's budget is one nil check, so
// notrace must match the plain-team numbers of BenchmarkRegionObs.
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
					// Outsized capacity so the ring never fills mid-benchmark;
					// a full ring costs less (no store), which would flatter
					// the numbers.
					opts = append(opts, withTracer(trace.New(n, trace.WithCapacity(1<<22))))
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
// without event recording.
func BenchmarkBarrierTrace(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "notrace"
		var opts []Option
		if on {
			name = "trace"
			opts = append(opts, withTracer(trace.New(4, trace.WithCapacity(1<<22))))
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
