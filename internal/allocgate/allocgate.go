// Package allocgate is the first of the suite's two allocation gates:
// it measures the steady-state heap allocations of every benchmark's
// Iter hook and asserts them against the one checked-in Budget, so it
// shows that an iteration allocates, whether in the region bodies, in
// their callees or in lazily built state. The second gate,
// cmd/npbescape, shows where: it diffs the compiler's heap-escape
// report against a baseline and names the new site by file:line.
//
// Each gate builds a benchmark, runs a few warm-up iterations so every
// lazily constructed structure (cached pipelines, reused teams) exists,
// then measures allocations per Iter with testing.AllocsPerRun. Field
// values are irrelevant to the measurement — allocation counts in
// these kernels do not depend on the data — so the gates run Iter on
// freshly constructed (zero-valued) grids rather than reproducing each
// benchmark's untimed setup phase.
package allocgate

import (
	"fmt"
	"strings"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/perfcount"
	"npbgo/internal/suite"
	"npbgo/internal/team"
)

// Threads is the team size every gate measures at. Two workers is the
// smallest size that exercises the parallel paths (closure hand-off to
// worker goroutines, pipelines, partial-sum reduction); n=1 short
// circuits them.
const Threads = 2

// Budget is the checked-in ceiling on steady-state heap allocations
// per Iter, for every gated configuration at Threads workers. Every
// kernel holds it at zero: region bodies are closures built once at
// construction time (including the nscore.Field RHS bodies BT and SP
// share and their own solve/transform bodies), operands are staged
// through benchmark fields, reductions go through the team's
// block-indexed partial slots, phases are charged by plain Start/Stop
// calls, and LU's plane pipeline is cached per team. Raising it is a
// performance regression and needs the same scrutiny as a slower
// benchmark result.
const Budget = 0

// Key identifies one gated configuration.
type Key struct {
	Bench string // a suite row in lower case, "cg"
	Class byte   // 'S' or 'W'
}

func (k Key) String() string { return fmt.Sprintf("%s.%c", k.Bench, k.Class) }

// Keys lists every gated configuration: each suite row at classes S
// and W.
func Keys() []Key {
	var keys []Key
	for _, r := range suite.Rows {
		b := strings.ToLower(r.Name)
		keys = append(keys, Key{b, 'S'}, Key{b, 'W'})
	}
	return keys
}

// Measure builds benchmark k.Bench at class k.Class, warms its
// steady-state hook with warm iterations, then returns the average
// allocations per Iter over runs measured iterations (via
// testing.AllocsPerRun, which pins GOMAXPROCS to 1 for the
// measurement).
func Measure(k Key, warm, runs int) (float64, error) {
	row, ok := suite.Lookup(strings.ToUpper(k.Bench))
	if !ok {
		return 0, fmt.Errorf("allocgate: unknown benchmark %q", k.Bench)
	}
	b, err := row.New(k.Class, Threads, kernel.Env{})
	if err != nil {
		return 0, err
	}
	tm := team.New(Threads)
	defer tm.Close()
	for i := 0; i < warm; i++ {
		b.Iter(tm)
	}
	return testing.AllocsPerRun(runs, func() { b.Iter(tm) }), nil
}

// MeasureCounters measures the steady-state allocations of one sampled
// parallel region: a team whose probe holds a software perf-event
// sampler (the same group-read path the hardware sets use) runs warm
// regions, then allocations per region are averaged over runs
// measurements. The budget is zero — RegionStart/RegionEnd must read
// into the groups' hoisted buffers, never the heap — so turning counters
// on cannot perturb the allocation discipline it is meant to diagnose.
// Where perf events are unavailable the *perfcount.UnavailableError is
// returned for the caller to skip on.
func MeasureCounters(warm, runs int) (float64, error) {
	pc, err := perfcount.NewSoftware(Threads)
	if err != nil {
		return 0, err
	}
	env := kernel.Env{Probe: team.NewProbe(Threads, nil, pc)}
	tm, done := env.Team(Threads)
	defer func() {
		done()
		pc.Close()
	}()
	region := func() {
		tm.Run(func(id int) {})
	}
	for i := 0; i < warm; i++ {
		region()
	}
	return testing.AllocsPerRun(runs, region), nil
}
