// Package trace annotates benchmark runs for the Go execution tracer
// (runtime/trace) and reads the traces back.
//
// The team probe's counters answer "how much time did worker w spend
// busy and waiting"; a trace answers *when*, beside what the Go
// scheduler did then. CG's anomaly in the paper (§5.2) was thread
// placement, which only a timeline with the scheduler in it shows.
//
// A traced run is one runtime/trace task named after its cell
// ("LU.S.t2"), and every annotation carries it:
//   - each parallel region is a Region region on the master and each
//     worker's share of it a Block region on the worker's goroutine;
//   - a span that is not one function body (a benchmark phase opened
//     by kernel.Env.Start and closed by Stop, a wait at an
//     id-attributed barrier, a blocking pipeline wait) is a pair of
//     Logs with the span's name as category and Begin, then End, as
//     message;
//   - an instant (a worker's id, a loop chunk, a steal, a pipeline
//     post, a panic, a cancellation) is one Log.
//
// Each worker logs its id once, so the reader can name its goroutine's
// track. Annotation strings are constants, caller strings or built
// once in New, and the team hoists the bodies it runs as regions, so
// annotating allocates nothing. (runtime/trace.StartRegion returns a
// heap-allocated *Region; it is not used.)
package trace

import (
	"bytes"
	"context"
	rt "runtime/trace"
	"strconv"
	"sync"
	"sync/atomic"
)

// Span and instant names of the team's annotations.
const (
	Region   = "team.region"   // region: one parallel region, on the master
	Block    = "team.block"    // region: one worker's share of a region
	Barrier  = "team.barrier"  // log pair: a wait at Team.BarrierID
	Pipeline = "team.pipeline" // log pair: a pipeline wait that found no token
	Worker   = "team.worker"   // instant: the goroutine's worker id
	Post     = "team.post"     // instant: a pipeline token posted
	Chunk    = "team.chunk"    // instant: a scheduled loop chunk claimed
	Steal    = "team.steal"    // instant: a chunk taken from the worker in the message
	Panic    = "team.panic"    // instant: a worker panicked
	Cancel   = "team.cancel"   // instant: the team was cancelled; the reason is the message

	Begin = "begin" // log message that opens a span
	End   = "end"   // log message that closes the innermost span of that name
)

// mu serializes traced runs: the runtime tracer is process-wide.
var mu sync.Mutex

// Tracer annotates one run. A nil *Tracer is the disabled state: its
// ID and Log do nothing, so the team probe forwards to it unchecked.
type Tracer struct {
	ctx  context.Context // the run's task
	task *rt.Task
	buf  *bytes.Buffer // the trace New started; nil when the run only annotates
	ids  []string      // worker ids as log messages
	// counts holds the annotations of each worker's track, then of every
	// other goroutine (a context watcher's cancellation). A worker's
	// count is written only by its own goroutine.
	counts []count
	// Data is the run's execution trace once Stop has returned: the
	// input of `go tool trace` and of Read. It is nil when another
	// tracer was already running (go test -trace): the annotations are
	// in that tracer's output instead.
	Data []byte
}

type count struct {
	n atomic.Uint64
	_ [56]byte
}

// New starts tracing a run named name (its cell, "LU.S.t2") for a team
// of workers (>= 1) under ctx: it waits for any other traced run to
// stop, starts the runtime tracer into memory unless one is already
// running, and opens the run's task. Every New must be followed by
// Stop.
func New(ctx context.Context, name string, workers int) *Tracer {
	workers = max(workers, 1)
	mu.Lock()
	t := &Tracer{ids: make([]string, workers), counts: make([]count, workers+1)}
	for i := range t.ids {
		t.ids[i] = strconv.Itoa(i)
	}
	if !rt.IsEnabled() {
		t.buf = new(bytes.Buffer)
		if rt.Start(t.buf) != nil {
			t.buf = nil
		}
	}
	t.ctx, t.task = rt.NewTask(ctx, name)
	return t
}

// Stop ends the run's task and, if New started the runtime tracer,
// stops it and keeps its output in Data. Call it once, after the run's
// team has joined.
func (t *Tracer) Stop() {
	t.task.End()
	if t.buf != nil {
		rt.Stop()
		t.Data = t.buf.Bytes()
	}
	mu.Unlock()
}

// ID returns worker id's id as a log message ("" out of range).
func (t *Tracer) ID(id int) string {
	if t == nil || id < 0 || id >= len(t.ids) {
		return ""
	}
	return t.ids[id]
}

// Log records one annotation on worker id's goroutine: a span edge
// when message is Begin or End, an instant otherwise. An id out of
// range counts on the shared track of the other goroutines.
func (t *Tracer) Log(id int, category, message string) {
	if t != nil {
		rt.Log(t.ctx, category, message)
		t.add(id, 1)
	}
}

// Region runs fn as a region named name on worker id's goroutine. fn
// should be built once: WithRegion allocates nothing, but a closure
// built per call would.
func (t *Tracer) Region(id int, name string, fn func()) {
	rt.WithRegion(t.ctx, name, fn)
	t.add(id, 2)
}

func (t *Tracer) add(id int, n uint64) {
	if id < 0 || id >= len(t.ids) {
		t.counts[len(t.ids)].n.Add(n)
		return
	}
	c := &t.counts[id].n
	c.Store(c.Load() + n)
}

// Events returns the number of annotations the run emitted, a region
// counting as two.
func (t *Tracer) Events() int {
	n := 0
	for i := range t.counts {
		n += int(t.counts[i].n.Load())
	}
	return n
}

// Drops returns 0: the runtime tracer keeps every event, having no
// fixed buffer to drop from.
func (t *Tracer) Drops() uint64 { return 0 }
