// Package team implements the master–worker thread-team runtime the
// translated benchmarks are parallelized with.
//
// The paper derives every benchmark class from java.lang.Thread, keeps a
// fixed set of worker objects alive for the whole run, and has the master
// switch them between blocked and runnable states with wait()/notify()
// around each parallel region — a direct imitation of the OpenMP version
// of the NPB. This package is the Go equivalent: a Team owns a fixed pool
// of goroutines; the master publishes a region function and advances a
// generation word, joins in as worker 0 and waits for a completion
// count, and a counting barrier provides in-region synchronization.
// Every one of those waits — and LU's pipeline tokens — is the same
// primitive (wait.go): poll an atomic word for a bounded budget, so a
// wait of microseconds never leaves its core, then park, so a serial
// phase of milliseconds costs no CPU; a releaser wakes only waiters that
// actually parked. A region per phase, with BarrierID between dependent
// loops only, is what the kernels build on it. Loop-level work sharing
// uses the same static block distribution as the OpenMP schedule(static)
// the paper's prototype used by default; WithSchedule switches a team to
// the dynamic distribution: own block first, then stealing (see
// schedule.go).
//
// The runtime is fault-isolating: a panic on any worker is captured with
// its stack, the region is poisoned so sibling workers waiting at a
// barrier or for a pipeline token unwind instead of deadlocking, and the
// master re-raises the failure as a typed *PanicError once every worker
// has rejoined — the process survives and the team remains usable.
// Cancellation works the same way: Cancel (or a context watched via
// WatchContext) poisons the team for good, wakes everyone, and
// makes subsequent regions no-ops; region bodies and benchmark iteration
// loops poll Cancelled for a prompt stop.
package team

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"npbgo/internal/fault"
	"npbgo/internal/trace"
)

// PanicError reports a panic captured on a team worker during a parallel
// region. The master re-raises it from Run after all workers have
// rejoined, so the process survives a worker crash.
type PanicError struct {
	ID     int    // id of the first worker that panicked
	Value  any    // the recovered panic value
	Stack  []byte // stack of the panicking worker at the panic site
	Others int    // additional workers that panicked in the same region
}

func (e *PanicError) Error() string {
	s := fmt.Sprintf("team: worker %d panicked: %v", e.ID, e.Value)
	if e.Others > 0 {
		s += fmt.Sprintf(" (and %d more worker(s))", e.Others)
	}
	return s
}

// regionAbort is the sentinel a poisoned wait panics with to unwind its
// worker; it marks a secondary victim, never the failure itself, so the
// recover wrapper swallows it.
type regionAbort struct{}

// Team is a fixed pool of workers executing parallel regions on demand.
// A Team with size 1 runs regions inline on the caller's goroutine, so
// "1 thread" measures the framework overhead the paper quantifies
// against the serial code (§5: "Java thread overhead ... contributes no
// more than 20%").
type Team struct {
	n    int
	lot  lot
	fork gate      // region generation; fn is published before it advances
	fn   func(int) // the current region's body
	done gate      // workers finished, counted over the team's life
	// joined is the value done reaches when every region started so far
	// has been joined; only the master touches it.
	joined  uint64
	arrived atomic.Int32 // workers at the barrier in the current generation
	trip    gate         // barrier generation: advanced by the last arriver
	partial []padded     // reduction scratch, one padded slot per worker
	closed  atomic.Bool  // set once by Close; guarded by CAS so Close races with itself safely
	exited  sync.WaitGroup

	// probe is the team's instrument (WithProbe, probe.go). When nil —
	// the default — every hook site is a single pointer check, so an
	// uninstrumented team pays nothing measurable.
	probe *Probe
	// With a tracer on the probe, the region and each worker's share of
	// it run as trace regions; their bodies are built once, in New.
	tr       *trace.Tracer
	dispatch func()   // t.forkJoin
	blocks   []func() // blocks[id] runs t.runOne(id)
	// The master writes inRegion and loopBase every region. A cache
	// line of padding keeps them off the line of closed and probe, which
	// every worker reads as a region starts: sharing it cost the dynamic
	// schedule ~20 % per chunk on a 2-CPU host.
	_ [64]byte

	// Loop scheduling state (schedule.go). All of it is allocated once
	// in New and reused by every loop, so scheduled loops stay
	// allocation-free. sched is fixed at New.
	sched    Schedule
	inRegion atomic.Bool // guards against nested parallel regions
	loopBase uint32      // loop instances dealt before the current region
	loopK    []padCount  // per-worker loop ordinal within the region
	loops    []padU64    // loop-slot ring of dynamic's arm words
	deques   [][]padU64  // per-slot dynamic deques, one word per worker

	failMu sync.Mutex // guards regionFail and cancelErr
	// regionFail is the first real panic of the current region; cleared
	// when the next region starts.
	regionFail *PanicError
	// cancelErr is the sticky reason passed to Cancel; once set the team
	// refuses to start new regions.
	cancelErr error
}

// padded is a float64 on its own cache line so that per-worker reduction
// partials do not false-share.
type padded struct {
	v float64
	_ [7]float64
}

// Option configures optional team behaviour at construction.
type Option func(*Team)

// New creates a team of n workers (n >= 1). Workers other than worker 0
// are persistent goroutines waiting on the fork gate, mirroring the
// paper's always-alive Thread objects in the blocked state. Close the
// team when done to release them.
func New(n int, opts ...Option) *Team {
	if n < 1 {
		panic(fmt.Sprintf("team: size %d < 1", n))
	}
	t := &Team{
		n:       n,
		partial: make([]padded, n),
	}
	for _, o := range opts {
		o(t)
	}
	if n > 1 {
		t.loopBase = 1 // instance 0 would match a fresh slot's zero tag
		t.loopK = make([]padCount, n)
		t.loops = make([]padU64, loopSlots)
		t.deques = make([][]padU64, loopSlots)
		for i := range t.deques {
			t.deques[i] = make([]padU64, n)
		}
	}
	t.lot.init(n)
	if t.probe != nil && t.probe.tr != nil {
		t.tr = t.probe.tr
		t.dispatch = t.forkJoin
		t.blocks = make([]func(), n)
		for id := range t.blocks {
			t.blocks[id] = func() { t.runOne(id) }
		}
		t.tr.Log(0, trace.Worker, t.tr.ID(0)) // New runs on the master's goroutine
	}
	for id := 1; id < n; id++ {
		t.exited.Add(1)
		go t.worker(id)
	}
	return t
}

func (t *Team) worker(id int) {
	defer t.exited.Done()
	if t.tr != nil {
		t.tr.Log(id, trace.Worker, t.tr.ID(id))
	}
	for region := uint64(1); ; region++ {
		t.lot.wait(&t.fork, region, false)
		if t.closed.Load() {
			return
		}
		t.block(id)
		t.done.v.Add(1)
		t.lot.release(&t.done)
	}
}

// block runs worker id's share of the current region: runOne, inside a
// trace.Block region when tracing.
func (t *Team) block(id int) {
	if t.blocks != nil {
		t.tr.Region(id, trace.Block, t.blocks[id])
	} else {
		t.runOne(id)
	}
}

// runOne executes t.fn(id) with panic isolation: a real panic is
// recorded as the region's failure (with the worker's stack) and
// poisons the region so waiting siblings unwind; the regionAbort
// sentinel those siblings throw is swallowed here.
func (t *Team) runOne(id int) {
	fn := t.fn
	if p := t.probe; p != nil {
		// Registered before the recover defer, so it runs after it: a
		// panicking worker's time is still charged.
		start := time.Now()
		defer func() { p.addBusy(id, time.Since(start)) }()
	}
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(regionAbort); ok {
				return // secondary unwind; primary failure already recorded
			}
			t.notePanic(id, v, debug.Stack())
		}
	}()
	fault.Maybe("team.region")
	fn(id)
}

func (t *Team) notePanic(id int, v any, stack []byte) {
	t.failMu.Lock()
	if t.regionFail == nil {
		t.regionFail = &PanicError{ID: id, Value: v, Stack: stack}
	} else {
		t.regionFail.Others++
	}
	t.failMu.Unlock()
	if p := t.probe; p != nil {
		p.panicked(id)
	}
	t.lot.broken.Store(true)
	t.lot.wakeAll()
}

// Cancel cancels the team: workers waiting at a barrier or for a
// pipeline token unwind, in-flight region bodies observe Cancelled() ==
// true, and subsequent regions become no-ops. The first reason sticks;
// nil means context.Canceled. A cancelled team can still be Closed.
func (t *Team) Cancel(reason error) {
	if reason == nil {
		reason = context.Canceled
	}
	t.failMu.Lock()
	first := t.cancelErr == nil
	if first {
		t.cancelErr = reason
	}
	t.failMu.Unlock()
	if first && t.probe != nil {
		t.probe.cancelled(reason)
	}
	t.lot.halt.Store(true)
	t.lot.wakeAll()
}

// Cancelled reports whether the team has been cancelled. Region bodies
// and benchmark iteration loops poll it for a prompt cooperative stop.
func (t *Team) Cancelled() bool { return t.lot.halt.Load() }

// WatchContext cancels the team when ctx is done. It returns a stop
// function releasing the watch, to be called once; callers typically
// `defer stop()` for the duration of a benchmark run. stop waits for a
// cancellation already under way, so after stop returns no cancellation
// side effect (including its trace event) is still in flight.
func (t *Team) WatchContext(ctx context.Context) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	var fired sync.WaitGroup
	fired.Add(1)
	unwatch := context.AfterFunc(ctx, func() {
		defer fired.Done()
		t.Cancel(ctx.Err())
	})
	return func() {
		if !unwatch() {
			fired.Wait()
		}
	}
}

// Size returns the number of workers in the team.
func (t *Team) Size() int { return t.n }

// Close shuts the worker goroutines down and joins them. The team must
// be idle (no region in flight); a team whose last region failed or was
// cancelled is idle once Run has returned. Close is idempotent
// and safe to call from multiple goroutines: exactly one caller wins
// the compare-and-swap and opens the fork gate on the closed flag, and
// every caller waits for the workers to exit — so once any Close
// returns, no worker goroutine of the team is left running.
func (t *Team) Close() {
	if t.closed.CompareAndSwap(false, true) {
		t.fork.v.Add(1)
		t.lot.release(&t.fork)
	}
	t.exited.Wait()
}

// Run executes fn(id) on every worker, id in [0, Size()), with the
// caller acting as worker 0 (the master), and returns when all workers
// have finished — one parallel region with an implicit join, the
// notify-all/wait-all cycle of the paper's master. If any worker
// panicked, Run re-raises the failure on the master as a *PanicError
// after the join. On a cancelled team Run is a no-op; callers observe
// the cancellation through Cancelled().
func (t *Team) Run(fn func(id int)) {
	if err := t.run(fn); err != nil {
		var pe *PanicError
		if errors.As(err, &pe) {
			panic(pe)
		}
		// Cancellation: the region was skipped or unwound; the caller's
		// iteration loop is expected to poll Cancelled() and stop.
	}
}

func (t *Team) run(fn func(id int)) error {
	if t.closed.Load() {
		panic("team: Run on closed team")
	}
	if t.lot.halt.Load() {
		return t.takeFailure()
	}
	if t.n > 1 {
		if !t.inRegion.CompareAndSwap(false, true) {
			// Starting a region from inside a region would overwrite the
			// one in flight; fail loudly instead.
			panic("team: nested parallel regions are not supported")
		}
		defer t.inRegion.Store(false)
	}
	t.fn = fn
	if p := t.probe; p != nil {
		p.regions.Add(1)
	}
	if t.dispatch != nil {
		t.tr.Region(0, trace.Region, t.dispatch)
	} else {
		t.forkJoin()
	}
	return t.takeFailure()
}

// forkJoin runs the region t.fn on every worker, the master as worker
// 0, and waits for the others to finish.
func (t *Team) forkJoin() {
	if t.n == 1 {
		t.block(0)
		return
	}
	t.resetRegion()
	t.fork.v.Add(1)
	t.lot.release(&t.fork)
	t.block(0)
	t.joined += uint64(t.n - 1)
	if p := t.probe; p != nil {
		// Join wait: how long the slowest worker ran past the master —
		// the skew the imbalance ratio summarizes per run.
		start := time.Now()
		t.lot.wait(&t.done, t.joined, false)
		p.joinNs.Add(int64(time.Since(start)))
	} else {
		t.lot.wait(&t.done, t.joined, false)
	}
}

// resetRegion clears the previous region's failure state. The sticky
// cancellation flag is deliberately not cleared: a cancelled team stays
// poisoned forever, so a cancellation racing with region start can never
// be lost.
func (t *Team) resetRegion() {
	if t.lot.broken.Load() {
		// The last region unwound: forget the workers that had reached
		// its barrier, and move the generation on so the trace never
		// shows two trips under one number.
		t.lot.broken.Store(false)
		t.arrived.Store(0)
		t.trip.v.Add(1)
	}
	// Re-arm the loop machinery. The previous region has fully joined,
	// so no worker still reads these. Every worker builds every
	// iterator, so after a region that ran to its end the ordinals
	// agree; after one that did not, the largest covers every instance
	// any worker dealt.
	var used uint32
	for i := range t.loopK {
		if k := t.loopK[i].v; k > used {
			used = k
		}
		t.loopK[i].v = 0
	}
	t.loopBase += used
}

// takeFailure returns, and clears, the region's panic; failing that, the
// reason the team was cancelled, if it was.
func (t *Team) takeFailure() error {
	t.failMu.Lock()
	pe := t.regionFail
	t.regionFail = nil
	cancel := t.cancelErr
	t.failMu.Unlock()
	if pe != nil {
		return pe
	}
	return cancel
}

// BarrierID blocks until every worker of the current region has reached
// it; id must be the calling worker's region id. It must be called by
// all Size() workers exactly the same number of times inside a region,
// as with an OpenMP barrier. If the region failed or the team was
// cancelled, BarrierID unwinds the calling worker instead of
// deadlocking. With a probe attached, the time this worker spends
// parked is charged to its wait slot — the signal that exposed the
// paper's LU pipeline stalls as per-thread timing asymmetry — and, when
// the probe traces, the wait is an arrive/release span on the worker's
// timeline, keyed by the barrier generation so the exporter can link
// the trip with flow events.
func (t *Team) BarrierID(id int) {
	if t.n > 1 {
		t.await(id)
	}
}

// BarrierUnlessStatic is the barrier between two worksharing loops over
// the same range when the second needs, per index, only what the same
// index of the first wrote. The static schedule hands an index to the
// same worker in both loops, so there it does nothing (OpenMP's nowait
// on same-shaped static loops); under every other schedule it is
// BarrierID.
func (t *Team) BarrierUnlessStatic(id int) {
	if t.sched != Static {
		t.BarrierID(id)
	}
}

// Block computes the static partition of the half-open index range
// [lo, hi) into parts pieces and returns piece id as [blo, bhi). Ranges
// are contiguous, cover [lo, hi) exactly, and differ in size by at most
// one — the schedule(static) distribution of the OpenMP prototype.
// parts must be at least 1.
func Block(lo, hi, parts, id int) (blo, bhi int) {
	if parts < 1 {
		panic(fmt.Sprintf("team: Block called with parts %d < 1 (range [%d,%d))", parts, lo, hi))
	}
	if id < 0 || id >= parts {
		panic(fmt.Sprintf("team: Block called with id %d out of range [0,%d) (range [%d,%d))", id, parts, lo, hi))
	}
	n := hi - lo
	if n < 0 {
		n = 0
	}
	q, r := n/parts, n%parts
	blo = lo + id*q
	if id < r {
		blo += id
	} else {
		blo += r
	}
	bhi = blo + q
	if id < r {
		bhi++
	}
	return blo, bhi
}

// Partial exposes worker id's reduction slot for regions that manage
// their own reductions across barriers.
func (t *Team) Partial(id int) *float64 { return &t.partial[id].v }

// PartialSum adds up all reduction slots in worker order. On a
// cancelled team it returns 0: the slots may mix the aborted region's
// partials with an earlier region's, so no sum of them is meaningful.
func (t *Team) PartialSum() float64 {
	if t.lot.halt.Load() {
		return 0
	}
	sum := 0.0
	for id := 0; id < t.n; id++ {
		sum += t.partial[id].v
	}
	return sum
}

// await is the counting barrier under Barrier and BarrierID: arrivals
// count up, and the last one zeroes the count and advances the
// generation gate the others wait on (the paper's Java code does the
// same thing with wait()/notifyAll()). A waiter unwinds with the
// regionAbort sentinel when the region fails or the team is cancelled,
// which is how such a region gets its workers back. A probed team runs
// the same barrier through Probe.await, which charges and traces it.
func (t *Team) await(id int) {
	if t.lot.aborted() {
		panic(regionAbort{})
	}
	if p := t.probe; p != nil {
		p.await(t, id)
		return
	}
	gen := t.trip.v.Load()
	if t.arrived.Add(1) == int32(t.n) {
		t.arrived.Store(0)
		t.trip.v.Add(1)
		t.lot.release(&t.trip)
	} else if !t.lot.wait(&t.trip, gen+1, true) {
		panic(regionAbort{})
	}
}
