package trace

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// record traces a two-worker run named TEST.S.t2 in which play
// annotates, and returns the tracer and what Read makes of its trace.
func record(t *testing.T, play func(tr *Tracer)) (*Tracer, *File, error) {
	t.Helper()
	tr := New(context.Background(), "TEST.S.t2", 2)
	play(tr)
	tr.Stop()
	if tr.Data == nil {
		t.Skip("another execution tracer is running; the run only annotated it")
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := os.WriteFile(path, tr.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Read(path)
	return tr, f, err
}

// playRun annotates a small two-worker run as the team does: a master
// phase around one region, both workers passing one barrier in their
// blocks, a pipeline stall on worker 1 and a post on worker 0.
func playRun(tr *Tracer) {
	tr.Log(0, Worker, tr.ID(0))
	tr.Log(0, "sweeps", Begin)
	tr.Region(0, Region, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Log(1, Worker, tr.ID(1))
			tr.Region(1, Block, func() {
				tr.Log(1, Barrier, Begin)
				tr.Log(1, Barrier, End)
				tr.Log(1, Pipeline, Begin)
				tr.Log(1, Pipeline, End)
			})
		}()
		tr.Region(0, Block, func() {
			tr.Log(0, Barrier, Begin)
			tr.Log(0, Barrier, End)
			tr.Log(0, Post, "")
		})
		wg.Wait()
	})
	tr.Log(0, "sweeps", End)
}

func TestEventsCountedPerTrack(t *testing.T) {
	tr, f, err := record(t, playRun)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 17 || tr.Drops() != 0 {
		t.Fatalf("Events() = %d, Drops() = %d; want 17 and 0", tr.Events(), tr.Drops())
	}
	// The reader sees the same annotations, and the task's begin and
	// end, on the master's goroutine.
	if f.Events != 19 || len(f.Tracks) != 2 {
		t.Fatalf("reader found %d events on %d tracks, want 19 on 2", f.Events, len(f.Tracks))
	}
	for i, want := range []struct{ events, blocks, barriers, pipes int }{{12, 1, 1, 0}, {7, 1, 1, 1}} {
		tk := f.Tracks[i]
		if tk.Worker != i || tk.Events != want.events || tk.Spans[Block] != want.blocks ||
			tk.Spans[Barrier] != want.barriers || tk.Spans[Pipeline] != want.pipes {
			t.Errorf("track %d = %+v, want worker %d with %+v", i, tk, i, want)
		}
	}
	if m := f.Tracks[0]; m.Spans[Region] != 1 || m.Spans["sweeps"] != 1 || m.Marks[Post] != 1 {
		t.Errorf("master track = %+v, want one region, one sweeps phase and one post", m)
	}
}

func TestOutOfRangeWorkerLandsOnRuntimeTrack(t *testing.T) {
	tr := New(context.Background(), "TEST", 2)
	tr.Log(99, Panic, "")
	tr.Log(-1, Cancel, "deadline")
	tr.Stop()
	if n := tr.counts[2].n.Load(); n != 2 {
		t.Fatalf("shared track counted %d annotations, want 2 (clamped ids)", n)
	}
	if n := tr.counts[0].n.Load() + tr.counts[1].n.Load(); n != 0 {
		t.Fatalf("worker tracks counted %d annotations, want 0", n)
	}
}

func TestUnpairedSpanFailsValidation(t *testing.T) {
	// A phase opened and never closed is the defect the reader exists to
	// catch: an Env.Start without its Stop.
	_, _, err := record(t, func(tr *Tracer) { tr.Log(0, "rhs", Begin) })
	if err == nil || !strings.Contains(err.Error(), `never closed (innermost "rhs")`) {
		t.Fatalf("Read = %v, want the unclosed rhs span", err)
	}
}

func TestSummaryListsTracks(t *testing.T) {
	_, f, err := record(t, playRun)
	if err != nil {
		t.Fatal(err)
	}
	sum := f.String()
	for _, want := range []string{"worker 0", "worker 1", "tasks TEST.S.t2", "busy="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestReadRejectsNonTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil || !strings.HasPrefix(err.Error(), "go tool trace: ") {
		t.Fatalf("Read = %v, want the tool's reason", err)
	}
}

func TestNewClampsWorkers(t *testing.T) {
	tr := New(context.Background(), "TEST", 0)
	tr.Stop()
	if len(tr.ids) != 1 || len(tr.counts) != 2 {
		t.Fatalf("sized for %d workers and %d tracks, want 1 and 2", len(tr.ids), len(tr.counts))
	}
}
