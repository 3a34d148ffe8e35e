// Package cg implements the NPB CG kernel: a conjugate-gradient inverse
// power method estimating the smallest eigenvalue of a large sparse
// symmetric matrix with random pattern — the paper's representative of
// "unstructured" computation (irregular memory access through index
// vectors), which it contrasts with the structured-grid group.
//
// The paper's §5.2 spends most of its CG discussion on a scheduling
// anomaly: the JVM ran CG's lightly-loaded threads on only 1-2
// processors until each thread was given a large warmup load. Go's
// scheduler does not need that fix: with and without such a load, CG.W
// times and its workers' runnable time in the execution trace do not
// separate (EXPERIMENTS.md, claim (f)).
//
// The matrix is stored in SELL-8-σ form (sell.go): chunks of eight
// rows, sorted by length inside windows of 128 and nested in the
// team's static blocks, whose mat-vec runs each row in a lane of one
// generated kernel call per chunk, bit for bit the one-row loop
// (DESIGN.md §37).
package cg

import (
	"fmt"
	"math"
	"time"

	"npbgo/internal/fault"
	"npbgo/internal/kernel"
	"npbgo/internal/team"
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
// and converted by New so repeated Run calls time only the solver; it
// is laid out for a team of the thread count New was given.
type Benchmark struct {
	Class   byte
	p       params
	threads int
	env     kernel.Env

	zeta, rnorm float64 // results of the latest complete Iter

	m *sell // the matrix, nested in the static blocks of threads workers

	x, z, pv, q, r []float64

	// Steady-state machinery: the two region bodies below are built once
	// by New and reused by every iteration, because a literal closure
	// capturing loop-variant scalars allocates per creation. The bodies
	// read their fixed operands and the current team from the Benchmark,
	// keeping the timed loop free of heap allocation (enforced by
	// internal/allocgate).
	tm   *team.Team // team of the current Run/Iter
	dots []dotSlot  // the regions' reduction partials, one per static block

	conjBody func(id int)
	normBody func(id int)
}

// dotSlot is one static block's cache line of the dot-product partials:
// in conjBody [dotPQ] and [dotRR] alternate, and a worker may write its
// next p.q partial while another still sums the r.r ones, hence two;
// normBody writes x.z into [dotPQ] and z.z into [dotRR].
type dotSlot [8]float64

const dotPQ, dotRR = 0, 1

// New builds the CG benchmark for a class and thread count, generating
// the sparse matrix (the untimed setup phase). env.Schedule is the knob
// §5.2's load-imbalance diagnosis calls for; with env.Timers set, the
// cg.f timer slots t_conj_grad and t_norm are profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("cg: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("cg: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, p: p, threads: threads, env: env}
	rowstr, colidx, a := makea(p.na, p.nonzer, rcond, p.shift)
	m, err := newSell(rowstr, colidx, a, p.na, threads)
	if err != nil {
		return nil, err
	}
	b.m = m
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

	// The norm tail of an outer iteration as one region, as cg.f's one
	// loop: x.z and z.z per static block, a barrier, then every worker
	// adds the z.z slots up and scales its share, x = z/||z||. x.z
	// stays in its slots for Iter's zeta.
	b.normBody = func(id int) {
		tm := b.tm
		x, z := b.x, b.z
		for it := tm.ReduceBlocks(id, 0, n); it.Next(); {
			xz, zz := 0.0, 0.0
			for i := it.Lo; i < it.Hi; i++ {
				xz += x[i] * z[i]
				zz += z[i] * z[i]
			}
			b.dots[it.Chunk()][dotPQ] = xz
			b.dots[it.Chunk()][dotRR] = zz
		}
		tm.BarrierID(id)
		inv := 1.0 / math.Sqrt(b.sumDots(dotRR))
		for it := tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				x[i] = inv * z[i]
			}
		}
	}
}

// NNZ returns the number of stored matrix nonzeros.
func (b *Benchmark) NNZ() int { return b.m.nnz }

// Result reports one CG run.
type Result struct {
	Zeta  float64
	RNorm float64 // final residual norm ||x - A z||
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the benchmark: one untimed feed-through iteration,
// then niter timed outer iterations, then verification, following cg.f.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()
	b.tm = tm

	n := b.p.na

	// Untimed iteration to touch all data.
	for i := range b.x {
		b.x[i] = 1.0
	}
	b.conjGrad()
	tm.Run(b.normBody)

	// Reset and time.
	for i := range b.x {
		b.x[i] = 1.0
	}
	b.zeta, b.rnorm = 0, 0
	start := time.Now()
	for it := 1; it <= b.p.niter && !tm.Cancelled(); it++ {
		b.Iter(tm)
	}
	elapsed := time.Since(start)

	var res Result
	res.Zeta = b.zeta
	res.RNorm = b.rnorm
	// Standard NPB CG flop estimate per outer iteration.
	nzf := float64(b.NNZ())
	naf := float64(n)
	flops := float64(b.p.niter) * (2*float64(cgitmax)*(3+nzf+5*naf) + 3 + nzf + 8*naf + 5*naf)

	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.AddTol("zeta", fault.CorruptFloat("cg.verify", b.zeta), b.p.zeta, 1e-10)
	res.Outcome = b.env.Outcome(elapsed, flops*1e-6, rep)
	return res
}

// Iter runs one timed outer iteration (conjGrad, then the norm tail:
// x.z, z.z and the normalization) on tm, whose Size must equal the
// thread count the Benchmark was built with, one region each, and
// leaves the iteration's zeta and residual norm in b.zeta and b.rnorm.
// Iter is the steady-state hook the allocation gate measures: after the
// first call it performs no heap allocation.
func (b *Benchmark) Iter(tm *team.Team) {
	b.tm = tm
	fault.Maybe("cg.iter")
	b.env.Start("t_conj_grad")
	rnorm := b.conjGrad()
	b.env.Stop("t_conj_grad")
	if tm.Cancelled() {
		// The slots of a cancelled region may hold partial sums, so a
		// zeta derived from them would be garbage; keep the last
		// complete iteration's values instead.
		return
	}
	b.env.Start("t_norm")
	tm.Run(b.normBody)
	b.env.Stop("t_norm")
	if tm.Cancelled() {
		return
	}
	b.zeta = b.p.shift + 1.0/b.sumDots(dotPQ)
	b.rnorm = rnorm
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
// kernel of every inner iteration. Under the static schedule the
// worker's one iteration range is its block, whose chunks hold exactly
// its block's rows.
func (b *Benchmark) spmv(id int, in, out []float64) {
	for it := b.tm.Loop(id, 0, len(out)); it.Next(); {
		b.m.mul(in, out, it.Lo, it.Hi)
	}
}

// dotIn is u.v inside conjBody, following a loop that wrote u or v:
// block partials into slot k, a barrier, the sum.
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
