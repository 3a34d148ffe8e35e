// Package allocgate is the suite's allocation gate: it measures the
// steady-state heap allocations of every benchmark's Iter hook and
// asserts them against the one checked-in Budget, so it shows that an
// iteration allocates, whether in the region bodies, in their callees,
// in the team's schedules, in the instruments or in lazily built state.
// To find where, run the gate under the memory profiler (DESIGN.md §13).
//
// The gate measures the configurations users run: at class S, every
// loop schedule with no instrument and with every instrument a run can
// attach (a probe with a tracer, under a running Go execution tracer,
// plus concurrent phase timers); at class W, the static schedule with
// no instrument.
//
// Each measurement builds a benchmark with the key's Env, opens its
// team through Env.Team as a run does, runs a few warm-up iterations so
// every lazily constructed structure (cached pipelines, per-worker
// deques) exists, then measures allocations per Iter as
// testing.AllocsPerRun does. Field values are irrelevant to the measurement
// — allocation counts in these kernels do not depend on the data — so
// the gate runs Iter on freshly constructed (zero-valued) grids rather
// than reproducing each benchmark's untimed setup phase.
package allocgate

import (
	"context"
	"fmt"
	"io"
	"runtime"
	rt "runtime/trace"
	"strings"

	"npbgo/internal/kernel"
	"npbgo/internal/suite"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
)

// Threads is the team size every gate measures at. Two workers is the
// smallest size that exercises the parallel paths (closure hand-off to
// worker goroutines, pipelines, partial-sum reduction, stealing); n=1
// short circuits them.
const Threads = 2

// Budget is the checked-in ceiling on steady-state heap allocations
// per Iter, for every gated configuration at Threads workers. Every
// kernel holds it at zero: region bodies are closures built once at
// construction time (including the nscore.Field RHS bodies BT and SP
// share and their own solve/transform bodies), operands are staged
// through benchmark fields, reductions go through the team's
// block-indexed partial slots, schedules deal chunks from preallocated
// cursors and deques, instruments record into hoisted buffers, phases
// are charged by plain Start/Stop calls, and LU's plane pipeline is
// cached per team. Raising it is a performance regression and needs
// the same scrutiny as a slower benchmark result.
const Budget = 0

// Key identifies one gated configuration.
type Key struct {
	Bench        string        // a suite row in lower case, "cg"
	Class        byte          // 'S' or 'W'
	Schedule     team.Schedule // the team's loop schedule
	Instrumented bool          // probe with tracer, concurrent timers
}

// String names the key as the test output does: "cg.S",
// "cg.S.stealing", "cg.S.probe", "cg.S.guided.probe".
func (k Key) String() string {
	s := fmt.Sprintf("%s.%c", k.Bench, k.Class)
	if k.Schedule != team.Static {
		s += "." + k.Schedule.String()
	}
	if k.Instrumented {
		s += ".probe"
	}
	return s
}

// Keys lists every gated configuration: each suite row at class S under
// every schedule, uninstrumented and instrumented, then at class W
// under the static schedule, uninstrumented.
func Keys() []Key {
	var keys []Key
	for _, r := range suite.Rows {
		b := strings.ToLower(r.Name)
		for _, name := range team.ScheduleNames() {
			s, _ := team.ParseSchedule(name) // every listed name parses
			keys = append(keys, Key{b, 'S', s, false}, Key{b, 'S', s, true})
		}
		keys = append(keys, Key{Bench: b, Class: 'W'})
	}
	return keys
}

// Measure builds benchmark k.Bench at class k.Class with k's schedule
// and instruments, warms its steady-state hook with warm iterations,
// then returns the average allocations per Iter over runs measured
// iterations (measureAllocsPerRun). An instrumented key's tracer
// annotates a runtime tracer started here, so every annotation really
// is recorded; the trace goes to io.Discard, because the count takes in
// every goroutine's mallocs, the trace writer's included. The runtime
// tracer is started afresh before each measured Iter: it flushes a
// generation about once a second, and the flush heap-allocates the
// stack frames it writes (runtime.makeTraceFrames, dozens of mallocs),
// so an Iter that is the whole run, as EP's is, would otherwise meet a
// flush whenever a busy host stretches its window. Where the runtime
// itself heap-allocates while tracing (tracerAllocates: the stack
// frames of every trace generation it flushes, runtime.makeTraceFrames,
// hundreds of mallocs a second under -race and on 386), the key
// attaches no tracer: no annotation causes those mallocs, and the gate
// could not tell them apart.
func Measure(k Key, warm, runs int) (float64, error) {
	row, ok := suite.Lookup(strings.ToUpper(k.Bench))
	if !ok {
		return 0, fmt.Errorf("allocgate: unknown benchmark %q", k.Bench)
	}
	env := kernel.Env{Schedule: k.Schedule}
	var fresh func() // restarts the gate's runtime tracer, if it started one
	if k.Instrumented {
		env.Timers = timer.NewConcurrentSet()
		var tr *trace.Tracer
		if !tracerAllocates {
			if rt.Start(io.Discard) == nil {
				defer rt.Stop()
				fresh = func() {
					rt.Stop()
					rt.Start(io.Discard)
					runtime.Gosched() // the new tracer's goroutines take their first steps
				}
			}
			tr = trace.New(context.Background(), k.String(), Threads)
			defer tr.Stop()
		}
		env.Probe = team.NewProbe(Threads, tr)
	}
	b, err := row.New(k.Class, Threads, env)
	if err != nil {
		return 0, err
	}
	tm, done := env.Team(Threads)
	defer done()
	for i := 0; i < warm; i++ {
		b.Iter(tm)
	}
	return measureAllocsPerRun(runs, fresh, func() { b.Iter(tm) }), nil
}

// measureAllocsPerRun is testing.AllocsPerRun with a hook: GOMAXPROCS pinned
// to 1, one warm-up call of f, then the mean mallocs of runs calls, each
// counted in its own window that opens right after fresh (when non-nil)
// returns.
func measureAllocsPerRun(runs int, fresh, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		if fresh != nil {
			fresh()
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total / uint64(runs))
}
