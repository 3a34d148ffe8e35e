// Package mg implements the NPB MG kernel: a V-cycle multigrid solver
// for the 3-D scalar Poisson equation on a periodic cube, with the point
// source/sink right-hand side of mg.f's zran3 (zran3.go). MG belongs to
// the paper's structured-grid benchmark group; its stencils are exactly
// the filter operations measured by the basic-ops study.
package mg

import (
	"fmt"
	"time"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// params defines one problem class.
type params struct {
	nx    int     // interior points per side (power of two)
	lt    int     // number of levels: nx = 2^lt
	nit   int     // V-cycles in the timed section
	rnm2  float64 // official verification residual norm
	tier  verify.Tier
	coefC int // which smoother coefficient set (0: S/W/A set, 1: B/C set)
}

var classes = map[byte]params{
	'S': {32, 5, 4, 0.5307707005734e-04, verify.TierOfficial, 0},
	'W': {128, 7, 4, 0.6467329375339e-05, verify.TierOfficial, 0},
	'A': {256, 8, 4, 0.2433365309069e-05, verify.TierOfficial, 0},
	'B': {256, 8, 20, 0.1800564401355e-05, verify.TierOfficial, 1},
	'C': {512, 9, 20, 0.5706732285740e-06, verify.TierOfficial, 1},
}

// Benchmark is a configured MG instance with its grid hierarchy
// allocated (repeated Run calls reuse the storage).
type Benchmark struct {
	Class   byte
	p       params
	threads int
	env     kernel.Env

	lv   []level     // lv[k] for k = 1..lt
	u, r [][]float64 // per-level fields, index 1..lt
	v    []float64   // right-hand side at the finest level

	a, c [4]float64
	cy   *cycle // reusable stencil engine for the timed loop
}

// New configures MG for the given class and thread count and allocates
// the hierarchy. With env.Timers set, the V-cycle, the residual updates
// and the final norm are profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("mg: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("mg: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, p: p, threads: threads, env: env}

	b.lv = make([]level, p.lt+1)
	b.u = make([][]float64, p.lt+1)
	b.r = make([][]float64, p.lt+1)
	for k := 1; k <= p.lt; k++ {
		n := (1 << k) + 2
		b.lv[k] = level{n, n, n}
		b.u[k] = make([]float64, b.lv[k].len())
		b.r[k] = make([]float64, b.lv[k].len())
	}
	b.v = make([]float64, b.lv[p.lt].len())

	b.a = [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	if p.coefC == 0 {
		b.c = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
	} else {
		b.c = [4]float64{-3.0 / 17.0, 1.0 / 33.0, -1.0 / 61.0, 0.0}
	}
	b.cy = newCycle(threads, b.lv[p.lt].n1, b.a, b.c)
	return b, nil
}

// mg3P performs one V-cycle: restrict the residual to the coarsest
// level, solve there with one smoothing, then interpolate corrections
// back up with a post-smoothing at each level, as mg.f's mg3P.
func (b *Benchmark) mg3P(tm *team.Team) {
	lt := b.p.lt
	const lb = 1
	for k := lt; k >= lb+1; k-- {
		b.cy.rprj3(tm, b.r[k], b.lv[k], b.r[k-1], b.lv[k-1])
	}
	zero3(b.u[lb])
	b.cy.psinv(tm, b.r[lb], b.u[lb], b.lv[lb])
	for k := lb + 1; k <= lt-1; k++ {
		zero3(b.u[k])
		b.cy.interp(tm, b.u[k-1], b.lv[k-1], b.u[k], b.lv[k])
		b.cy.resid(tm, b.r[k], b.u[k], b.r[k], b.lv[k])
		b.cy.psinv(tm, b.r[k], b.u[k], b.lv[k])
	}
	b.cy.interp(tm, b.u[lt-1], b.lv[lt-1], b.u[lt], b.lv[lt])
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, b.lv[lt])
	b.cy.psinv(tm, b.r[lt], b.u[lt], b.lv[lt])
}

// Iter runs one timed V-cycle plus the trailing residual update on tm,
// whose Size must equal the thread count the Benchmark was built with.
// Iter is the steady-state hook the allocation gate measures: after the
// first call it performs no heap allocation.
func (b *Benchmark) Iter(tm *team.Team) {
	b.env.Start("mg3P")
	b.mg3P(tm)
	b.env.Stop("mg3P")
	b.env.Start("resid")
	b.cy.resid(tm, b.r[b.p.lt], b.u[b.p.lt], b.v, b.lv[b.p.lt])
	b.env.Stop("resid")
}

// Result reports one MG run.
type Result struct {
	RNm2 float64 // final residual L2 norm
	RNmu float64 // final residual max norm
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the benchmark: the right-hand side's charges are
// found once on the team (mg.f's zran3 regenerates the same field for
// the warm-up and for the timed run; v is read-only in between), then
// one untimed feed-through cycle, re-initialization, nit timed V-cycles
// and verification, following mg.f.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()

	lt := b.p.lt
	fin := b.lv[lt]
	nx := b.p.nx
	nxyz := float64(nx) * float64(nx) * float64(nx)
	rhs := b.cy.findCharges(tm, fin)

	// Untimed warm-up cycle.
	zero3(b.u[lt])
	rhs.plant(b.v, fin)
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
	b.mg3P(tm)
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)

	// Reset and time.
	zero3(b.u[lt])
	rhs.plant(b.v, fin)
	start := time.Now()
	b.env.Start("resid")
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
	b.env.Stop("resid")
	for it := 1; it <= b.p.nit && !tm.Cancelled(); it++ {
		b.Iter(tm)
	}
	b.env.Start("norm2u3")
	rnm2, rnmu := b.cy.norm2u3(tm, b.r[lt], fin, nxyz)
	b.env.Stop("norm2u3")
	elapsed := time.Since(start)

	var res Result
	res.RNm2 = rnm2
	res.RNmu = rnmu
	rep := &verify.Report{Tier: b.p.tier}
	rep.Add("rnm2", rnm2, b.p.rnm2)
	// Standard NPB MG flop estimate: 58 flops per fine-grid point per
	// iteration (the usual figure quoted for the V-cycle plus resid).
	res.Outcome = b.env.Outcome(elapsed, 58.0*float64(b.p.nit)*nxyz*1e-6, rep)
	return res
}
