// Package cg implements the NPB CG kernel: a conjugate-gradient inverse
// power method estimating the smallest eigenvalue of a large sparse
// symmetric matrix with random pattern — the paper's representative of
// "unstructured" computation (irregular memory access through index
// vectors), which it contrasts with the structured-grid group.
//
// The paper's §5.2 spends most of its CG discussion on a scheduling
// anomaly: the JVM ran CG's lightly-loaded threads on only 1-2
// processors until each thread was given a large warmup load. The
// Warmup option reproduces that fix.
package cg

import (
	"context"
	"fmt"
	"math"
	"time"

	"npbgo/internal/fault"
	"npbgo/internal/obs"
	"npbgo/internal/perfcount"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
	"npbgo/internal/verify"
)

// params holds the per-class problem definition from cg.f.
type params struct {
	na     int
	nonzer int
	niter  int
	shift  float64
	zeta   float64 // official verification value
}

var classes = map[byte]params{
	'S': {1400, 7, 15, 10.0, 8.5971775078648},
	'W': {7000, 8, 15, 12.0, 10.362595087124},
	'A': {14000, 11, 15, 20.0, 17.130235054029},
	'B': {75000, 13, 75, 60.0, 22.712745482631},
	'C': {150000, 15, 75, 110.0, 28.973605592845},
}

const (
	rcond   = 0.1
	cgitmax = 25 // inner CG iterations per outer step
)

// Benchmark is a configured CG instance. The sparse matrix is generated
// by New so repeated Run calls time only the solver.
type Benchmark struct {
	Class   byte
	p       params
	threads int
	warmup  bool
	ctx     context.Context    // nil means not cancellable
	rec     *obs.Recorder      // nil without WithObs
	tr      *trace.Tracer      // nil without WithTrace
	pc      *perfcount.Sampler // nil without WithCounters
	timers  *timer.Set         // nil without WithTimers
	sched   team.Schedule      // loop schedule, Static without WithSchedule

	ballastBytes int
	ballast      [][]float64 // per-worker ballast, nil without WithBallast

	rowstr []int
	colidx []int
	a      []float64

	x, z, pv, q, r []float64

	// Steady-state machinery: the region bodies below are built once by
	// New and reused by every iteration, because For/ForBlock/ReduceSum
	// wrap their body in a fresh closure per call and a literal closure
	// capturing loop-variant scalars allocates per creation. The bodies
	// instead read the per-call scalar scaleInv, the staged dot operands
	// and the current team from the Benchmark, keeping the timed loop free
	// of heap allocation (enforced by internal/allocgate).
	tm       *team.Team // team of the current Run/Iter
	scaleInv float64    // 1/||z|| for normalize
	dotA     []float64  // operands of the pending dot product
	dotB     []float64
	dots     []dotSlot // conjBody's reduction partials, one per static block

	conjBody    func(id int)
	scaleBody   func(id int)
	dotBody     func(id int)
	ballastBody func(id int)
	conjFn      func() float64
	normFn      func() float64
}

// dotSlot is one static block's cache line of conjBody's dot-product
// partials: [dotPQ] and [dotRR] alternate, and a worker may write its
// next p.q partial while another still sums the r.r ones, hence two.
type dotSlot [8]float64

const dotPQ, dotRR = 0, 1

// Option configures optional benchmark behaviour.
type Option func(*Benchmark)

// WithWarmup enables the per-thread initialization load of §5.2.
func WithWarmup() Option { return func(b *Benchmark) { b.warmup = true } }

// WithObs attaches a runtime-metrics recorder to the run's team:
// per-worker busy and barrier-wait times, region counts and the
// imbalance ratio — the instrumentation the paper's §5.2 CG diagnosis
// was made with.
func WithObs(rec *obs.Recorder) Option { return func(b *Benchmark) { b.rec = rec } }

// WithTrace attaches an execution tracer to the run's team: per-worker
// event timelines (region blocks, barrier and pipeline waits),
// exportable as Chrome/Perfetto JSON — the when-view that complements
// the obs layer's how-much totals.
func WithTrace(tr *trace.Tracer) Option { return func(b *Benchmark) { b.tr = tr } }

// WithCounters attaches a hardware-counter sampler to the run's team:
// per-worker cycles/instructions/cache-miss deltas are charged to pc at
// every parallel region. pc should be sized perfcount.New(threads); nil
// leaves counter sampling disabled.
func WithCounters(pc *perfcount.Sampler) Option { return func(b *Benchmark) { b.pc = pc } }

// WithSchedule selects the team's loop schedule — the knob §5.2's
// load-imbalance diagnosis calls for. The default is team.Static, the
// paper's block distribution.
func WithSchedule(s team.Schedule) Option { return func(b *Benchmark) { b.sched = s } }

// WithTimers enables the per-phase profile (t_conj_grad, t_norm), the
// cg.f timer slots the paper's profiling discussion uses.
func WithTimers() Option { return func(b *Benchmark) { b.timers = timer.NewSet() } }

// WithContext makes Run cancellable: when ctx expires the team is
// cancelled (unblocking any parked workers) and the timed outer loop
// stops within about one iteration, returning a partial result.
func WithContext(ctx context.Context) Option {
	return func(b *Benchmark) { b.ctx = ctx }
}

// WithBallast reproduces the paper's other §5.2 experiment: "an
// artificial increase in the memory use ... also resulted in a drop of
// scalability". Each worker is given bytes of ballast that the timed
// loop streams through once per outer iteration, inflating the
// benchmark's working set without changing its arithmetic.
func WithBallast(bytes int) Option {
	return func(b *Benchmark) { b.ballastBytes = bytes }
}

// New builds the CG benchmark for a class and thread count, generating
// the sparse matrix (the untimed setup phase).
func New(class byte, threads int, opts ...Option) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("cg: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("cg: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, p: p, threads: threads}
	for _, o := range opts {
		o(b)
	}
	b.rowstr, b.colidx, b.a = makea(p.na, p.nonzer, rcond, p.shift)
	if b.ballastBytes > 0 {
		words := b.ballastBytes / 8
		if words < 1 {
			words = 1
		}
		b.ballast = make([][]float64, threads)
		for i := range b.ballast {
			b.ballast[i] = make([]float64, words)
		}
	}
	n := p.na
	b.x = make([]float64, n)
	b.z = make([]float64, n)
	b.pv = make([]float64, n)
	b.q = make([]float64, n)
	b.r = make([]float64, n)
	b.buildBodies()
	return b, nil
}

// buildBodies constructs every parallel-region body once. Each is a
// func(id int) handed straight to Team.Run; loop shares come from the
// team's schedule iterator inside the body, so no closure is created in
// the timed loop. Reductions iterate block-granularity chunks
// (ReduceBlocks) and store each chunk's partial under its block index,
// so their sums are the static schedule's bits whichever worker ran
// which block.
func (b *Benchmark) buildBodies() {
	n := b.p.na
	b.dots = make([]dotSlot, b.threads)

	// All of conj_grad as one region. Each worker keeps rho, alpha and
	// beta to itself: a dot product is per-static-block partials, a
	// barrier, and every worker adding the slots up in block order, the
	// arithmetic of Team.PartialSum. Loops over [0,n) that touch only
	// their own indices follow each other with BarrierUnlessStatic; a
	// full barrier stands where a whole vector must be complete: the
	// partials, and p before the next q = A p.
	//npblint:hot
	b.conjBody = func(id int) {
		tm := b.tm
		x, z, p, q, r := b.x, b.z, b.pv, b.q, b.r
		for it := tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				q[i] = 0
				z[i] = 0
				r[i] = x[i]
				p[i] = x[i]
			}
		}
		rho := b.dotIn(id, dotRR, r, r)
		for cgit := 1; cgit <= cgitmax; cgit++ {
			b.spmv(id, p, q)
			alpha := rho / b.dotIn(id, dotPQ, p, q)
			for it := tm.Loop(id, 0, n); it.Next(); {
				for i := it.Lo; i < it.Hi; i++ {
					z[i] += alpha * p[i]
					r[i] -= alpha * q[i]
				}
			}
			rho0 := rho
			rho = b.dotIn(id, dotRR, r, r)
			beta := rho / rho0
			for it := tm.Loop(id, 0, n); it.Next(); {
				for i := it.Lo; i < it.Hi; i++ {
					p[i] = r[i] + beta*p[i]
				}
			}
			tm.BarrierID(id)
		}
		// ||x - A z||^2 into the dotRR slots, for conjGrad to add up.
		b.spmv(id, z, r)
		tm.BarrierUnlessStatic(id)
		for it := tm.ReduceBlocks(id, 0, n); it.Next(); {
			s := 0.0
			for i := it.Lo; i < it.Hi; i++ {
				d := x[i] - r[i]
				s += d * d
			}
			b.dots[it.Chunk()][dotRR] = s
		}
	}

	//npblint:hot x = z/||z|| with the norm's reciprocal read from the Benchmark
	b.scaleBody = func(id int) {
		inv := b.scaleInv
		x, z := b.x, b.z
		for it := b.tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				x[i] = inv * z[i]
			}
		}
	}

	//npblint:hot shared dot-product body over the operands staged in dotA/dotB
	b.dotBody = func(id int) {
		tm := b.tm
		u, v := b.dotA, b.dotB
		for it := tm.ReduceBlocks(id, 0, len(u)); it.Next(); {
			s := 0.0
			for i := it.Lo; i < it.Hi; i++ {
				s += u[i] * v[i]
			}
			*tm.Partial(it.Chunk()) = s
		}
	}

	//npblint:hot per-worker ballast streaming (no-op without WithBallast)
	b.ballastBody = func(id int) {
		bal := b.ballast[id]
		s := 0.0
		for i := range bal {
			s += bal[i]
			bal[i] = s * 0.5
		}
		*b.tm.Partial(id) = s
	}

	b.conjFn = func() float64 { return b.conjGrad() }
	b.normFn = func() float64 { b.normalize(); return 0 }
}

// NNZ returns the number of stored matrix nonzeros.
func (b *Benchmark) NNZ() int { return b.rowstr[b.p.na] }

// Result reports one CG run.
type Result struct {
	Zeta    float64
	RNorm   float64 // final residual norm ||x - A z||
	Elapsed time.Duration
	Mops    float64
	Verify  *verify.Report
	Timers  *timer.Set // per-phase profile when WithTimers was given
}

// Run executes the benchmark: one untimed feed-through iteration, then
// niter timed outer iterations, then verification, following cg.f.
func (b *Benchmark) Run() Result {
	tm := team.New(b.threads, team.WithRecorder(b.rec), team.WithTracer(b.tr), team.WithCounters(b.pc), team.WithSchedule(b.sched))
	defer tm.Close()
	if b.ctx != nil {
		stop := tm.WatchContext(b.ctx)
		defer stop()
	}
	if b.warmup {
		tm.Warmup(5_000_000)
	}
	b.tm = tm

	n := b.p.na

	// Untimed iteration to touch all data.
	for i := range b.x {
		b.x[i] = 1.0
	}
	b.conjGrad()
	b.normalize()

	// Reset and time.
	for i := range b.x {
		b.x[i] = 1.0
	}
	zeta := 0.0
	var rnorm float64
	start := time.Now()
	for it := 1; it <= b.p.niter; it++ {
		if tm.Cancelled() {
			break
		}
		z, rn, ok := b.Iter(tm)
		rnorm = rn
		if !ok {
			// The reductions of a cancelled team return 0, so zeta
			// derived from them would be garbage; keep the last complete
			// iteration's value instead.
			break
		}
		zeta = z
	}
	elapsed := time.Since(start)

	var res Result
	res.Zeta = zeta
	res.RNorm = rnorm
	res.Timers = b.timers
	res.Elapsed = elapsed
	// Standard NPB CG flop estimate per outer iteration.
	nzf := float64(b.NNZ())
	naf := float64(n)
	flops := float64(b.p.niter) * (2*float64(cgitmax)*(3+nzf+5*naf) + 3 + nzf + 8*naf + 5*naf)
	if s := elapsed.Seconds(); s > 0 {
		res.Mops = flops * 1e-6 / s
	}

	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.AddTol("zeta", fault.CorruptFloat("cg.verify", zeta), b.p.zeta, 1e-10)
	res.Verify = rep
	return res
}

// timed charges fn's wall time to the named master-side phase timer
// and, when tracing, brackets it as a named phase span on the master
// timeline (a direct call when both are off). The name reaches the
// tracer as a parameter, so the Begin/End pairing is owned here —
// call sites cannot leak a phase.
func (b *Benchmark) timed(name string, fn func() float64) float64 {
	if b.timers == nil && b.tr == nil {
		return fn()
	}
	if b.tr != nil {
		b.tr.BeginPhase(name)
		defer b.tr.EndPhase(name)
	}
	if b.timers == nil {
		return fn()
	}
	b.timers.Start(name)
	v := fn()
	b.timers.Stop(name)
	return v
}

// Iter runs one timed outer iteration (conjGrad, the zeta update, and
// the normalization) on tm, whose Size must equal the thread count the
// Benchmark was built with. It returns the iteration's zeta and
// residual norm; ok is false when the team was cancelled mid-iteration,
// in which case zeta is meaningless. Iter is the steady-state hook the
// allocation gate measures: after the first call it performs no heap
// allocation.
func (b *Benchmark) Iter(tm *team.Team) (zeta, rnorm float64, ok bool) {
	b.tm = tm
	fault.Maybe("cg.iter")
	b.touchBallast()
	rnorm = b.timed("t_conj_grad", b.conjFn)
	if tm.Cancelled() {
		return 0, rnorm, false
	}
	norm1 := b.dot(b.x, b.z)
	zeta = b.p.shift + 1.0/norm1
	b.timed("t_norm", b.normFn)
	return zeta, rnorm, true
}

// touchBallast streams every worker through its ballast once, evicting
// the benchmark's real working set from the caches (a no-op without
// WithBallast).
func (b *Benchmark) touchBallast() {
	if b.ballast == nil {
		return
	}
	b.tm.Run(b.ballastBody)
}

// normalize scales z to unit norm into x (end of each outer iteration).
func (b *Benchmark) normalize() {
	norm2 := b.dot(b.z, b.z)
	b.scaleInv = 1.0 / math.Sqrt(norm2)
	b.tm.Run(b.scaleBody)
}

// conjGrad runs cgitmax CG iterations for the system A z = x and returns
// the residual norm ||x - A z||, as cg.f's conj_grad. On a cancelled
// team it returns 0, never a norm of an aborted region's partials.
func (b *Benchmark) conjGrad() float64 {
	b.tm.Run(b.conjBody)
	if b.tm.Cancelled() {
		return 0
	}
	return math.Sqrt(b.sumDots(dotRR))
}

// spmv is worker id's share of the sparse mat-vec out = A in, the
// kernel of every inner iteration.
//
//npblint:hot
func (b *Benchmark) spmv(id int, in, out []float64) {
	rowstr, colidx, a := b.rowstr, b.colidx, b.a
	for it := b.tm.Loop(id, 0, len(out)); it.Next(); {
		for i := it.Lo; i < it.Hi; i++ {
			sum := 0.0
			for k := rowstr[i]; k < rowstr[i+1]; k++ {
				sum += a[k] * in[colidx[k]]
			}
			out[i] = sum
		}
	}
}

// dotIn is u.v inside conjBody, following a loop that wrote u or v:
// block partials into slot k, a barrier, the sum.
//
//npblint:hot
func (b *Benchmark) dotIn(id, k int, u, v []float64) float64 {
	tm := b.tm
	tm.BarrierUnlessStatic(id)
	for it := tm.ReduceBlocks(id, 0, len(u)); it.Next(); {
		s := 0.0
		for i := it.Lo; i < it.Hi; i++ {
			s += u[i] * v[i]
		}
		b.dots[it.Chunk()][k] = s
	}
	tm.BarrierID(id)
	return b.sumDots(k)
}

func (b *Benchmark) sumDots(k int) float64 {
	sum := 0.0
	for c := range b.dots {
		sum += b.dots[c][k]
	}
	return sum
}

// dot is a team-parallel dot product with deterministic partial
// combination: operands are staged on the Benchmark for the prebuilt
// body, partials land in the team's reduction slots, and PartialSum
// combines them in worker order — the same arithmetic as
// Team.ReduceSum without its per-call closure.
func (b *Benchmark) dot(u, v []float64) float64 {
	b.dotA, b.dotB = u, v
	b.tm.Run(b.dotBody)
	return b.tm.PartialSum()
}
