package trace

import (
	"bytes"
	"strings"
	"testing"
)

// record plays a small two-worker run into tr: one region with both
// workers passing one traced barrier (generation 7), a pipeline stall
// on worker 1, and a master phase.
func record(tr *Tracer) {
	tr.RegionBegin(1)
	tr.BeginPhase("sweeps")
	for id := 0; id < 2; id++ {
		tr.BlockBegin(id, 1)
		tr.BarrierArrive(id, 7)
		tr.BarrierRelease(id, 7)
	}
	tr.PipeWaitBegin(1, 0)
	tr.PipeWaitEnd(1, 0)
	tr.PipeSignal(0, 0)
	for id := 0; id < 2; id++ {
		tr.BlockEnd(id, 1)
	}
	tr.EndPhase("sweeps")
	tr.RegionEnd(1)
}

func TestSnapshotTracksAndCounts(t *testing.T) {
	tr := New(2)
	record(tr)
	s := tr.Snapshot()
	if s.Workers != 2 || len(s.Tracks) != 4 {
		t.Fatalf("got %d workers, %d tracks; want 2 workers, 4 tracks", s.Workers, len(s.Tracks))
	}
	wantNames := []string{"worker 0", "worker 1", "master", "runtime"}
	wantEvents := []int{5, 6, 4, 0} // w0 adds the pipe signal, w1 the wait pair; master: region+phase pairs
	for i, tk := range s.Tracks {
		if tk.Name != wantNames[i] {
			t.Errorf("track %d name = %q, want %q", i, tk.Name, wantNames[i])
		}
		if len(tk.Events) != wantEvents[i] {
			t.Errorf("track %q has %d events, want %d", tk.Name, len(tk.Events), wantEvents[i])
		}
		if tk.Drops != 0 {
			t.Errorf("track %q drops = %d, want 0", tk.Name, tk.Drops)
		}
	}
	if s.Events() != 15 {
		t.Errorf("Events() = %d, want 15", s.Events())
	}
	if s.Drops() != 0 {
		t.Errorf("Drops() = %d, want 0", s.Drops())
	}
}

func TestTimestampsMonotonicPerTrack(t *testing.T) {
	tr := New(2)
	record(tr)
	for _, tk := range tr.Snapshot().Tracks {
		last := int64(-1)
		for _, e := range tk.Events {
			if e.TS < last {
				t.Fatalf("track %q: ts %d < previous %d", tk.Name, e.TS, last)
			}
			last = e.TS
		}
	}
}

func TestRingDropsWhenFull(t *testing.T) {
	tr := New(1, WithCapacity(4))
	for i := 0; i < 10; i++ {
		tr.BlockBegin(0, uint64(i))
	}
	s := tr.Snapshot()
	w := s.Tracks[0]
	if len(w.Events) != 4 {
		t.Fatalf("kept %d events, want the 4-event prefix", len(w.Events))
	}
	if w.Drops != 6 {
		t.Fatalf("drops = %d, want 6", w.Drops)
	}
	// The prefix is complete: the first four emits, in order.
	for i, e := range w.Events {
		if e.ID != uint64(i) {
			t.Fatalf("event %d has ID %d, want %d (prefix not preserved)", i, e.ID, i)
		}
	}
}

func TestOutOfRangeWorkerLandsOnRuntimeTrack(t *testing.T) {
	tr := New(2)
	tr.Panic(99)
	tr.Panic(-1)
	s := tr.Snapshot()
	if n := len(s.Tracks[3].Events); n != 2 {
		t.Fatalf("runtime track has %d events, want 2 (clamped ids)", n)
	}
	if n := len(s.Tracks[0].Events) + len(s.Tracks[1].Events); n != 0 {
		t.Fatalf("worker tracks have %d events, want 0", n)
	}
}

func TestWriteChromeRoundTrip(t *testing.T) {
	tr := New(2)
	record(tr)
	tr.Cancel("deadline")
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteChrome(&buf, "TEST.S t2"); err != nil {
		t.Fatal(err)
	}
	info, err := Validate(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace fails own validation: %v", err)
	}
	if info.FlowStarts < 1 || info.FlowEnds < 1 {
		t.Fatalf("barrier flow events missing: %d starts, %d ends", info.FlowStarts, info.FlowEnds)
	}
	names := map[string]bool{}
	for _, tk := range info.Tracks {
		names[tk.Name] = true
	}
	for _, want := range []string{"worker 0", "worker 1", "master"} {
		if !names[want] {
			t.Errorf("exported trace has no track named %q (tracks: %v)", want, names)
		}
	}
	if !strings.Contains(buf.String(), `"TEST.S t2"`) {
		t.Error("process label missing from export")
	}
}

func TestWriteChromeClosesTruncatedSpans(t *testing.T) {
	// Capacity 3 records BlockBegin+BarrierArrive and then drops
	// everything, leaving two spans open on a track with drops; the
	// exporter must close them so the file stays loadable.
	tr := New(1, WithCapacity(2))
	tr.BlockBegin(0, 1)
	tr.BarrierArrive(0, 1)
	tr.BarrierRelease(0, 1) // dropped
	tr.BlockEnd(0, 1)       // dropped
	s := tr.Snapshot()
	if s.Drops() == 0 {
		t.Fatal("test setup: expected drops")
	}
	var buf bytes.Buffer
	if err := s.WriteChrome(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(buf.Bytes()); err != nil {
		t.Fatalf("truncated trace fails validation: %v", err)
	}
	if !strings.Contains(buf.String(), `"truncated":true`) {
		t.Error("synthetic closes not marked truncated")
	}
}

func TestUnpairedSpanFailsValidation(t *testing.T) {
	// On a track without drops an unclosed span is an instrumentation
	// bug, and the pipeline must say so rather than emit a broken file.
	tr := New(1)
	tr.BlockBegin(0, 1) // never ended
	var buf bytes.Buffer
	if err := tr.Snapshot().WriteChrome(&buf, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(buf.Bytes()); err == nil {
		t.Fatal("unclosed span validated; want an error")
	}
}

func TestSummaryListsTracks(t *testing.T) {
	tr := New(2)
	record(tr)
	sum := tr.Snapshot().Summary()
	for _, want := range []string{"worker 0", "worker 1", "master", "2 workers"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	tr := New(0)
	if tr.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", tr.Workers())
	}
}
