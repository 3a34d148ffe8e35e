// Package mg implements the NPB MG kernel: a V-cycle multigrid solver
// for the 3-D scalar Poisson equation on a periodic cube, with the point
// source/sink right-hand side of mg.f's zran3 (zran3.go). MG belongs to
// the paper's structured-grid benchmark group; its stencils are exactly
// the filter operations measured by the basic-ops study.
package mg

import (
	"fmt"
	"math"
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
	rows [][]float64    // per-worker generator row for findCharges, the finest n1 long
	sums [][2][]float64 // per-worker face- and edge-sum rows of resid and psinv, as long
	maxs []float64      // per-worker max-norm slots

	// The region bodies, built once in New over the fixed hierarchy so
	// the timed loop performs no heap allocation (enforced by
	// internal/allocgate); tm stages the team they run on.
	tm        *team.Team
	cycleBody func(id int) // one V-cycle, mg3P
	residBody func(id int) // r = v - A u at the finest level
	normBody  func(id int) // the residual norms at the finest level
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
	n1 := b.lv[p.lt].n1
	b.rows, b.sums = make([][]float64, threads), make([][2][]float64, threads)
	for id := range b.rows {
		b.rows[id] = make([]float64, n1)
		b.sums[id] = [2][]float64{make([]float64, n1), make([]float64, n1)}
	}
	b.maxs = make([]float64, threads)
	b.cycleBody = b.cycle
	b.residBody = func(id int) { b.resid(id, p.lt, b.v) }
	b.normBody = b.norms
	return b, nil
}

// cycle is one worker's V-cycle, mg.f's mg3P, all of it one region:
// restrict the residual to the coarsest level, smooth there, then
// interpolate the corrections back up with a post-smoothing at each
// level. Each stencil is a worksharing loop over planes. A stencil
// reads its operand's neighbouring planes, which other workers wrote,
// so every loop is followed by a barrier, and the serial comm3 and
// zero3 run between two barriers on the master (single). The last
// comm3, of u at the finest level, is mg3P's, after the join.
func (b *Benchmark) cycle(id int) {
	lt := b.p.lt
	for k := lt; k >= 2; k-- {
		b.rprj3(id, k)
		var z []float64
		if k == 2 {
			z = b.u[1]
		}
		b.single(id, b.r, k-1, z)
	}
	b.psinv(id, 1)
	for k := 2; k < lt; k++ {
		b.single(id, b.u, k-1, b.u[k])
		b.interp(id, k)
		b.tm.BarrierID(id)
		b.resid(id, k, b.r[k])
		b.single(id, b.r, k, nil)
		b.psinv(id, k)
	}
	b.single(id, b.u, lt-1, nil)
	b.interp(id, lt)
	b.tm.BarrierID(id)
	b.resid(id, lt, b.v)
	b.single(id, b.r, lt, nil)
	b.psinv(id, lt)
}

// single refreshes the ghost shells of f on level k (f is b.r or b.u)
// and, when z is not nil, clears z, on the master alone (OpenMP's
// single): the first barrier waits for every worker's planes of f[k],
// the second holds the team until the ghosts and the cleared grid are
// in place.
func (b *Benchmark) single(id int, f [][]float64, k int, z []float64) {
	b.tm.BarrierID(id)
	if id == 0 {
		comm3(f[k], b.lv[k])
		if z != nil {
			zero3(z)
		}
	}
	b.tm.BarrierID(id)
}

// resid is worker id's share of r = v - A u on the interior of level k.
func (b *Benchmark) resid(id, k int, v []float64) {
	l, s := b.lv[k], &b.sums[id]
	for it := b.tm.Loop(id, 1, l.n3-1); it.Next(); {
		residRange(b.r[k], b.u[k], v, l, &b.a, s[0], s[1], it.Lo, it.Hi)
	}
}

// psinv is worker id's share of the smoother u += C r on the interior
// of level k.
func (b *Benchmark) psinv(id, k int) {
	l, s := b.lv[k], &b.sums[id]
	for it := b.tm.Loop(id, 1, l.n3-1); it.Next(); {
		psinvRange(b.r[k], b.u[k], l, &b.c, s[0], s[1], it.Lo, it.Hi)
	}
}

// rprj3 is worker id's share of the restriction of r on level k onto
// level k-1.
func (b *Benchmark) rprj3(id, k int) {
	for it := b.tm.Loop(id, 1, b.lv[k-1].n3-1); it.Next(); {
		rprj3Range(b.r[k], b.lv[k], b.r[k-1], b.lv[k-1], it.Lo, it.Hi)
	}
}

// interp is worker id's share of the prolongation of u on level k-1
// into u on level k.
func (b *Benchmark) interp(id, k int) {
	for it := b.tm.Loop(id, 0, b.lv[k-1].n3-1); it.Next(); {
		interpRange(b.u[k-1], b.lv[k-1], b.u[k], b.lv[k], it.Lo, it.Hi)
	}
}

// norms is worker id's share of the residual norms at the finest
// level, into the block-indexed reduction and max slots.
func (b *Benchmark) norms(id int) {
	tm, l, r := b.tm, b.lv[b.p.lt], b.r[b.p.lt]
	n1, n2 := l.n1, l.n2
	for it := tm.ReduceBlocks(id, 1, l.n3-1); it.Next(); {
		s, m := 0.0, 0.0
		for i3 := it.Lo; i3 < it.Hi; i3++ {
			for i2 := 1; i2 < n2-1; i2++ {
				c := l.at(0, i2, i3)
				for i1 := 1; i1 < n1-1; i1++ {
					v := r[c+i1]
					s += v * v
					if a := math.Abs(v); a > m {
						m = a
					}
				}
			}
		}
		*tm.Partial(it.Chunk()) = s
		b.maxs[it.Chunk()] = m
	}
}

// mg3P performs one V-cycle on tm (Benchmark.cycle), then refreshes
// the finest u's ghost shells.
func (b *Benchmark) mg3P(tm *team.Team) {
	b.tm = tm
	tm.Run(b.cycleBody)
	comm3(b.u[b.p.lt], b.lv[b.p.lt])
}

// residual computes r = v - A u on the interior of the finest level on
// tm and refreshes r's ghost shells.
func (b *Benchmark) residual(tm *team.Team) {
	b.tm = tm
	tm.Run(b.residBody)
	comm3(b.r[b.p.lt], b.lv[b.p.lt])
}

// norm2u3 returns the discrete L2 norm (scaled by the interior point
// count) and the max norm of r's interior on the finest level.
func (b *Benchmark) norm2u3(tm *team.Team) (rnm2, rnmu float64) {
	b.tm = tm
	tm.Run(b.normBody)
	sum := tm.PartialSum()
	for id := 0; id < tm.Size(); id++ {
		if b.maxs[id] > rnmu {
			rnmu = b.maxs[id]
		}
	}
	nx := float64(b.p.nx)
	return math.Sqrt(sum / (nx * nx * nx)), rnmu
}

// Iter runs one timed V-cycle plus the trailing residual update on tm,
// whose Size must equal the thread count the Benchmark was built with:
// one region each. Iter is the steady-state hook the allocation gate
// measures: after the first call it performs no heap allocation.
func (b *Benchmark) Iter(tm *team.Team) {
	b.env.Start("mg3P")
	b.mg3P(tm)
	b.env.Stop("mg3P")
	b.env.Start("resid")
	b.residual(tm)
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
	rhs := findCharges(tm, fin, b.rows)

	// Untimed warm-up cycle.
	zero3(b.u[lt])
	rhs.plant(b.v, fin)
	b.residual(tm)
	b.mg3P(tm)
	b.residual(tm)

	// Reset and time.
	zero3(b.u[lt])
	rhs.plant(b.v, fin)
	start := time.Now()
	b.env.Start("resid")
	b.residual(tm)
	b.env.Stop("resid")
	for it := 1; it <= b.p.nit && !tm.Cancelled(); it++ {
		b.Iter(tm)
	}
	b.env.Start("norm2u3")
	rnm2, rnmu := b.norm2u3(tm)
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
