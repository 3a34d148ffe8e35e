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
// and, where the host allows software perf events, a counter sampler,
// plus concurrent phase timers); at class W, the static schedule with
// no instrument.
//
// Each measurement builds a benchmark with the key's Env, opens its
// team through Env.Team as a run does, runs a few warm-up iterations so
// every lazily constructed structure (cached pipelines, per-worker
// deques) exists, then measures allocations per Iter with
// testing.AllocsPerRun. Field values are irrelevant to the measurement
// — allocation counts in these kernels do not depend on the data — so
// the gate runs Iter on freshly constructed (zero-valued) grids rather
// than reproducing each benchmark's untimed setup phase.
package allocgate

import (
	"context"
	"fmt"
	"io"
	rt "runtime/trace"
	"strings"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/perfcount"
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
	Instrumented bool          // probe with tracer and sampler, concurrent timers
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
// iterations (via testing.AllocsPerRun, which pins GOMAXPROCS to 1 for
// the measurement). An instrumented key carries a counter sampler only
// where perfcount.NewSoftware succeeds. Its tracer annotates a runtime
// tracer started here, so every annotation really is recorded; the
// trace goes to io.Discard, because AllocsPerRun counts every
// goroutine's mallocs, the trace writer's included. Where the runtime
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
	if k.Instrumented {
		env.Timers = timer.NewConcurrentSet()
		// Slot 0 is the master, bound on this goroutine as a run binds it.
		pc, err := perfcount.NewSoftware(Threads)
		if err == nil {
			pc.Bind(0)
			defer func() { pc.Unbind(0); pc.Close() }()
		}
		var tr *trace.Tracer
		if !tracerAllocates {
			if rt.Start(io.Discard) == nil {
				defer rt.Stop()
			}
			tr = trace.New(context.Background(), k.String(), Threads)
			defer tr.Stop()
		}
		env.Probe = team.NewProbe(Threads, tr, pc)
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
	return testing.AllocsPerRun(runs, func() { b.Iter(tm) }), nil
}
