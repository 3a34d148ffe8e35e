package npbgo_test

import (
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npbgo"
	"npbgo/internal/suite"
	"npbgo/internal/trace"
)

// runTraced runs one class-S cell with the tracer on and returns what
// the reader finds in its execution trace. The reader validates: every
// span is paired and nested on its goroutine, and every annotation
// belongs to a task begun in the trace.
func runTraced(t *testing.T, bench npbgo.Benchmark, threads int) *trace.File {
	t.Helper()
	res, err := npbgo.Run(npbgo.Config{Benchmark: bench, Class: 'S', Threads: threads, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("%s.S failed verification under tracing: tier %s", bench, res.Tier)
	}
	if res.Trace == nil {
		t.Fatalf("%s.S: Config.Trace set but Result.Trace is nil", bench)
	}
	if res.Trace.Data == nil {
		t.Skip("another execution tracer is running; the run only annotated it")
	}
	path := filepath.Join(t.TempDir(), string(bench)+".trace")
	if err := os.WriteFile(path, res.Trace.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := trace.Read(path)
	if err != nil {
		t.Fatalf("%s.S t%d trace fails validation: %v", bench, threads, err)
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
	t.Fatalf("no track for worker %d:\n%s", id, f)
	return trace.Track{}
}

// phases returns the benchmark phases opened on a track: its spans
// outside the team's own.
func phases(tk trace.Track) map[string]bool {
	out := map[string]bool{}
	for name := range tk.Spans {
		if !strings.HasPrefix(name, "team.") {
			out[name] = true
		}
	}
	return out
}

// TestTraceDisabledByDefault: without Config.Trace the result carries
// no tracer — the disabled path really is off.
func TestTraceDisabledByDefault(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: "IS", Class: 'S', Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("Result.Trace set without Config.Trace")
	}
}

// TestTracedISExportsValidTrace: a class-S IS run (the suite's
// barrier-heavy kernel) with tracing on leaves a trace that validates,
// with a track per worker holding its blocks and barrier waits.
func TestTracedISExportsValidTrace(t *testing.T) {
	f := runTraced(t, "IS", 2)
	for id := 0; id < 2; id++ {
		if w := worker(t, f, id); w.Spans[trace.Block] == 0 || w.Spans[trace.Barrier] == 0 {
			t.Errorf("worker %d = %+v, want block and barrier spans", id, w)
		}
	}
}

// TestTracedRegionsBelongToRunTask: every annotation of a run, the
// team's regions included, belongs to the run's task — the trace holds
// one task, LU.S.t2, and the reader rejects an annotation outside the
// tasks begun in the trace.
func TestTracedRegionsBelongToRunTask(t *testing.T) {
	f := runTraced(t, "LU", 2)
	if len(f.Tasks) != 1 {
		t.Fatalf("tasks = %v, want LU.S.t2 alone", f.Tasks)
	}
	for _, name := range f.Tasks {
		if name != "LU.S.t2" {
			t.Fatalf("task %q, want LU.S.t2", name)
		}
	}
	if n := worker(t, f, 0).Spans[trace.Region]; n == 0 {
		t.Fatal("no team regions on the master's track")
	}
}

// TestTracedLURecordsPipelineAndPhases: LU's pipelined SSOR sweeps are
// a reason the tracer exists; its trace must carry pipeline posts on the
// worker tracks and the named phase spans on the master's.
func TestTracedLURecordsPipelineAndPhases(t *testing.T) {
	f := runTraced(t, "LU", 2)
	if worker(t, f, 0).Marks[trace.Post] == 0 {
		t.Error("no pipeline posts on worker 0's track")
	}
	got := phases(worker(t, f, 0))
	for _, want := range []string{"sweeps", "rhs", "scale+update"} {
		if !got[want] {
			t.Errorf("master track has no %q phase span (saw %v)", want, got)
		}
	}
}

// TestTracedPhasesMatchProfile: kernel.Env.Start/Stop is the one phase
// bracket for timers and trace alike. Every suite row's traced class-S
// run leaves a trace that validates — an Env.Start without its Stop
// leaves a span open and fails here — and for the seven rows with
// master-side phases the master's track opens exactly the phases a
// profiled run reports. EP charges its timers per worker, not through
// the Env, so it has no master-side phase to compare.
func TestTracedPhasesMatchProfile(t *testing.T) {
	for _, row := range suite.Rows {
		t.Run(row.Name, func(t *testing.T) {
			bench := npbgo.Benchmark(row.Name)
			f := runTraced(t, bench, 2)
			if row.Name == "EP" {
				return
			}
			traced := phases(worker(t, f, 0))
			res, err := npbgo.Run(npbgo.Config{Benchmark: bench, Class: 'S', Threads: 2, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			profiled := map[string]bool{}
			for _, p := range res.Phases {
				profiled[p.Name] = true
			}
			if len(profiled) == 0 || !maps.Equal(traced, profiled) {
				t.Errorf("master-track phases %v, profiled phases %v", traced, profiled)
			}
		})
	}
}

// TestTracedSerialRun: the n==1 inline path leaves a coherent trace
// too: regions and blocks on the one worker's track, no barrier waits.
func TestTracedSerialRun(t *testing.T) {
	f := runTraced(t, "EP", 1)
	if w := worker(t, f, 0); w.Spans[trace.Block] == 0 || w.Spans[trace.Barrier] != 0 {
		t.Fatalf("serial worker = %+v, want blocks and no barrier spans", w)
	}
}
