// Package lu implements the NPB LU pseudo-application: a symmetric
// successive over-relaxation (SSOR) solver for the 3-D compressible
// Navier-Stokes equations, splitting the implicit operator into block
// lower and upper triangular sweeps. The parallel sweeps are pipelined
// along the j dimension, reproducing the structure whose per-plane
// synchronization the paper identifies as the cause of LU's lower
// scalability compared to BT and SP (§5.2).
package lu

import (
	"fmt"
	"math"

	"npbgo/internal/fault"
	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// classSpec defines one LU problem class.
type classSpec struct {
	size  int
	itmax int
	dt    float64
}

var classes = map[byte]classSpec{
	'S': {12, 50, 0.5},
	'W': {33, 300, 1.5e-3},
	'A': {64, 250, 2.0},
	'B': {102, 250, 2.0},
	'C': {162, 250, 2.0},
}

const omega = 1.2

// fieldRows is the number of n^3 rows an instance takes from
// nscore.Rows: u, rsd and frct, five each, and the operator's vel,
// flux, visc4 and dis.
const fieldRows = 26

// Benchmark is a configured LU instance.
type Benchmark struct {
	Class   byte
	n       int
	itmax   int
	threads int
	env     kernel.Env
	c       nscore.Consts
	blk     blockConsts // jacld/jacu block constants derived from c

	// The 5-vector fields, component-major: one n^3 row per component,
	// indexed by point (at, i fastest). u[m][p] is lu.f's u(m,i,j,k).
	u, rsd, frct [5][]float64

	// Per-worker sweep scratch: the band's wavefront schedule and one
	// wave's blocks in lane form.
	scratch []*sweepScratch

	ops [3]opDir // the operator's xi, eta and zeta directions

	// The operator's rows, indexed by point like the fields: the
	// velocities and squared speed (vel), the convective fluxes of
	// components 1-4 (flux), the viscous energy flux (visc4) and one
	// component's dissipation term (dis).
	vel        [5][]float64
	flux       [4][]float64
	visc4, dis []float64

	// Steady-state machinery: the region bodies below are built once by
	// New and reused every istep (a closure literal at the call site
	// would allocate per invocation), keeping the timed loop free of
	// heap allocation (enforced by internal/allocgate). The op* fields
	// stage applyOperator's operands for its body, whose rhs and erhs
	// calls differ in them; the pipeline is cached per team.
	tm                *team.Team
	pipe              *team.Pipeline
	pipeOwner         *team.Team // team the cached pipeline was built for
	opOut, opW, opNeg *[5][]float64

	opBody     func(id int) // applyOperator's region
	scaleBody  func(id int)
	updateBody func(id int)
	sweepsBody func(id int)
}

// Lane form: eight points side by side, element e of lane q at [e][q]
// (lanes.go, generated from blocks.go's kernels).
type (
	blk8 = [25][8]float64 // a 5x5 block of each lane
	vec8 = [5][8]float64  // a 5-vector of each lane
)

// sweepScratch is one worker's storage for the triangular sweeps: the
// wavefront schedule of its band and the blocks and lane-form vectors
// of one wave (ssor.go). The coupling and diagonal blocks are only ever
// written at their structural non-zeros (see blocks.go), so the zeros
// they are allocated with persist for the whole run.
type sweepScratch struct {
	waves []wave  // the band's schedule, in the lower sweep's order
	a     [3]blk8 // the couplings to the k, j and i neighbours
	d     blk8    // the diagonal blocks, factored (diagonal)
	u     [4]vec8 // the states the blocks are built from, in a's order, then the point's
	r     [4]vec8 // rsd at the points, then at their k, j and i neighbours
}

// New configures LU for the given class and thread count. env.Schedule
// applies to the explicit phases (operator sweeps, residual init/scale,
// flow update); the pipelined triangular sweeps always keep the static
// j-split, because the per-plane Wait/Post handshake assumes worker id
// owns a fixed band. On cancellation a worker waiting for a pipeline
// token unwinds with the team. With env.Timers set, the SSOR phases are
// profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	spec, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("lu: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("lu: threads %d < 1", threads)
	}
	return newBenchmark(class, spec, threads, env), nil
}

// newBenchmark builds an LU instance of spec's grid (size ≥ 7).
func newBenchmark(class byte, spec classSpec, threads int, env kernel.Env) *Benchmark {
	b := &Benchmark{Class: class, n: spec.size, itmax: spec.itmax, threads: threads, env: env}
	b.c = nscore.SetConstants(spec.size, spec.dt)
	b.blk = newBlockConsts(&b.c)
	b.ops = newOpDirs(&b.c, spec.size)
	b.scratch = make([]*sweepScratch, threads)
	for id := range b.scratch {
		jlo, jhi := team.Block(1, spec.size-1, threads, id)
		b.scratch[id] = &sweepScratch{waves: newWaves(spec.size, jlo, jhi)}
	}
	rows := nscore.Rows(fieldRows, spec.size*spec.size*spec.size)
	copy(b.u[:], rows[0:5])
	copy(b.rsd[:], rows[5:10])
	copy(b.frct[:], rows[10:15])
	copy(b.vel[:], rows[15:20])
	copy(b.flux[:], rows[20:24])
	b.visc4, b.dis = rows[24], rows[25]
	b.buildBodies()
	return b
}

// buildBodies constructs every parallel-region body once. Each is a
// func(id int) handed straight to Team.Run; block bounds come from
// team.Block inside the body, per-worker scratch from the pools, and
// applyOperator's operands from the op* staging fields (buildOperator),
// so the SSOR loop creates no closures.
func (b *Benchmark) buildBodies() {
	n := b.n

	b.buildOperator()

	// residual scaling by the pseudo-time step on the interior rows
	b.scaleBody = func(id int) {
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for _, r := range &b.rsd {
					for j := 1; j < n-1; j++ {
						r := r[b.at(1, j, k):b.at(n-1, j, k)]
						for p := range r {
							r[p] *= b.c.Dt
						}
					}
				}
			}
		}
	}

	// flow-variable update u += tmp*rsd on the interior rows
	b.updateBody = func(id int) {
		tmp := 1.0 / (omega * (2.0 - omega))
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for m, u := range &b.u {
					for j := 1; j < n-1; j++ {
						lo, hi := b.at(1, j, k), b.at(n-1, j, k)
						u, r := u[lo:hi], b.rsd[m][lo:hi]
						for p, v := range r {
							u[p] += tmp * v
						}
					}
				}
			}
		}
	}

	// The pipelined sweeps must keep the static team.Block split: each
	// worker's Wait/Post handshake with its neighbours assumes worker id
	// owns the same fixed j-band on every k-plane, which a dynamic chunk
	// assignment would break.

	// Both triangular sweeps in one region, pipelined over planes: the
	// lower one forward, the upper one backward, each plane of a band a
	// wave at a time, in the schedule's order and then in reverse.
	// Nothing separates them: a worker starts upward on its band once
	// its own lower sweep is done and its successor has posted the
	// plane, and the successor posts only after finishing its lower
	// sweep, the last reader of this band's lower values; forward and
	// reverse tokens are counted apart, so neither sweep can take the
	// other's.
	b.sweepsBody = func(id int) {
		ws := b.scratch[id]
		waves := ws.waves
		for k := 1; k < n-1; k++ {
			fault.Maybe("lu.sweep")
			b.pipe.Wait(id)
			for g := range waves {
				b.sweepWave(ws, &waves[g], k, -1)
			}
			b.pipe.Post(id)
		}
		for k := n - 2; k >= 1; k-- {
			b.pipe.WaitReverse(id)
			for g := len(waves) - 1; g >= 0; g-- {
				b.sweepWave(ws, &waves[g], k, +1)
			}
			b.pipe.PostReverse(id)
		}
	}
}

// at returns the index of point (i,j,k) in a field's rows.
func (b *Benchmark) at(i, j, k int) int {
	return i + b.n*(j+b.n*k)
}

// exactAt evaluates the exact solution at grid point (i,j,k).
func (b *Benchmark) exactAt(i, j, k int, out *[5]float64) {
	nscore.ExactSolution(
		float64(i)*b.c.Dnxm1, float64(j)*b.c.Dnym1, float64(k)*b.c.Dnzm1, out)
}

// setbv sets the exact solution on all six boundary faces (setbv).
func (b *Benchmark) setbv() {
	n := b.n
	var ue [5]float64
	set := func(i, j, k int) {
		b.exactAt(i, j, k, &ue)
		p := b.at(i, j, k)
		for m, u := range &b.u {
			u[p] = ue[m]
		}
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			set(i, j, 0)
			set(i, j, n-1)
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			set(i, 0, k)
			set(i, n-1, k)
		}
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			set(0, j, k)
			set(n-1, j, k)
		}
	}
}

// setiv sets the interior initial values by transfinite interpolation of
// the boundary exact values (setiv).
func (b *Benchmark) setiv() {
	n := b.n
	var ue1, ue2, ue3, ue4, ue5, ue6 [5]float64
	for k := 1; k < n-1; k++ {
		zeta := float64(k) * b.c.Dnzm1
		for j := 1; j < n-1; j++ {
			eta := float64(j) * b.c.Dnym1
			for i := 1; i < n-1; i++ {
				xi := float64(i) * b.c.Dnxm1
				b.exactAt(0, j, k, &ue1)
				b.exactAt(n-1, j, k, &ue2)
				b.exactAt(i, 0, k, &ue3)
				b.exactAt(i, n-1, k, &ue4)
				b.exactAt(i, j, 0, &ue5)
				b.exactAt(i, j, n-1, &ue6)
				p := b.at(i, j, k)
				for m, u := range &b.u {
					pxi := (1.0-xi)*ue1[m] + xi*ue2[m]
					peta := (1.0-eta)*ue3[m] + eta*ue4[m]
					pzeta := (1.0-zeta)*ue5[m] + zeta*ue6[m]
					u[p] = pxi + peta + pzeta -
						pxi*peta - peta*pzeta - pzeta*pxi +
						pxi*peta*pzeta
				}
			}
		}
	}
}

// errorNorm computes the interior RMS difference between u and the
// exact solution (error).
func (b *Benchmark) errorNorm() [5]float64 {
	n := b.n
	var sum [5]float64
	var ue [5]float64
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				b.exactAt(i, j, k, &ue)
				p := b.at(i, j, k)
				for m, u := range &b.u {
					d := ue[m] - u[p]
					sum[m] += d * d
				}
			}
		}
	}
	den := float64(n-2) * float64(n-2) * float64(n-2)
	for m := 0; m < 5; m++ {
		sum[m] = math.Sqrt(sum[m] / den)
	}
	return sum
}

// pintgr computes the surface-integral verification quantity frc.
func (b *Benchmark) pintgr() float64 {
	n := b.n
	c := &b.c
	// Integration sub-domain bounds (0-based translation of pintgr's
	// ibeg/ifin etc. for the serial full grid).
	ii1, ii2 := 1, n-2
	ji1, ji2 := 1, n-3
	ki1, ki2 := 2, n-2

	u0, u1, u2, u3, u4 := nscore.Components(&b.u)
	phi := func(p int) float64 {
		return c.C2 * (u4[p] - 0.5*(u1[p]*u1[p]+u2[p]*u2[p]+u3[p]*u3[p])/u0[p])
	}

	frc1 := 0.0
	for j := ji1; j < ji2; j++ {
		for i := ii1; i < ii2; i++ {
			s := 0.0
			for _, k := range [2]int{ki1, ki2} {
				s += phi(b.at(i, j, k)) + phi(b.at(i+1, j, k)) +
					phi(b.at(i, j+1, k)) + phi(b.at(i+1, j+1, k))
			}
			frc1 += s
		}
	}
	frc1 *= c.Dnxm1 * c.Dnym1

	frc2 := 0.0
	for k := ki1; k < ki2; k++ {
		for i := ii1; i < ii2; i++ {
			s := 0.0
			for _, j := range [2]int{ji1, ji2} {
				s += phi(b.at(i, j, k)) + phi(b.at(i+1, j, k)) +
					phi(b.at(i, j, k+1)) + phi(b.at(i+1, j, k+1))
			}
			frc2 += s
		}
	}
	frc2 *= c.Dnxm1 * c.Dnzm1

	frc3 := 0.0
	for k := ki1; k < ki2; k++ {
		for j := ji1; j < ji2; j++ {
			s := 0.0
			for _, i := range [2]int{ii1, ii2} {
				s += phi(b.at(i, j, k)) + phi(b.at(i, j+1, k)) +
					phi(b.at(i, j, k+1)) + phi(b.at(i, j+1, k+1))
			}
			frc3 += s
		}
	}
	frc3 *= c.Dnym1 * c.Dnzm1

	return 0.25 * (frc1 + frc2 + frc3)
}

// Result reports one LU run.
type Result struct {
	RsdNm [5]float64 // final Newton residual norms
	ErrNm [5]float64 // solution error norms
	Frc   float64    // surface integral
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the benchmark following lu.f: boundary and
// interior initialization, forcing computation, then itmax timed SSOR
// iterations and verification.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()

	b.setbv()
	b.setiv()
	b.erhs(tm)

	elapsed := b.ssor(tm)

	var res Result
	res.RsdNm = nscore.RMS(&b.rsd, b.n)
	res.ErrNm = b.errorNorm()
	res.Frc = b.pintgr()
	nf := float64(b.n)
	flops := float64(b.itmax) * (1984.77*nf*nf*nf - 10923.3*nf*nf + 27770.9*nf - 144010.0)

	rep := &verify.Report{Tier: verify.TierOfficial}
	if ref, ok := reference[b.Class]; ok {
		for m := 0; m < 5; m++ {
			rep.Add(fmt.Sprintf("rsdnm(%d)", m+1), res.RsdNm[m], ref.xcr[m])
		}
		for m := 0; m < 5; m++ {
			rep.Add(fmt.Sprintf("errnm(%d)", m+1), res.ErrNm[m], ref.xce[m])
		}
		rep.Add("frc", res.Frc, ref.xci)
	} else {
		rep.Tier = verify.TierNone
	}
	res.Outcome = b.env.Outcome(elapsed, flops*1e-6, rep)
	return res
}

// refVals holds the 5+5+1 verification values of one class.
type refVals struct {
	xcr, xce [5]float64
	xci      float64
}

// reference verification values for classes S, W and A: produced by
// this implementation and agreeing with the published verify.f
// constants to 12+ significant digits where cross-checked (S and A
// residual norms and surface integrals). Classes B and C run
// unverified.
var reference = map[byte]refVals{
	'S': {
		xcr: [5]float64{1.6196343210977e-02, 2.1976745164819e-03, 1.5179927653403e-03, 1.5029584436006e-03, 3.4264073155897e-02},
		xce: [5]float64{6.4223319957962e-04, 8.4144342047378e-05, 5.8588269616503e-05, 5.8474222595125e-05, 1.3103347914112e-03},
		xci: 7.8418928865937e+00,
	},
	'W': {
		xcr: [5]float64{1.2365116381922e+01, 1.3172284777985e+00, 2.5501207130948e+00, 2.3261877502524e+00, 2.8267994441886e+01},
		xce: [5]float64{4.8678771442163e-01, 5.0646528809815e-02, 9.2818181019599e-02, 8.5701265427329e-02, 1.0842774177923e+00},
		xci: 1.1613993110230e+01,
	},
	'A': {
		xcr: [5]float64{7.7902107606689e+02, 6.3402765259693e+01, 1.9499249727293e+02, 1.7845301160419e+02, 1.8384760349464e+03},
		xce: [5]float64{2.9964085685472e+01, 2.8194576365003e+00, 7.3473412698775e+00, 6.7139225687777e+00, 7.0715315688393e+01},
		xci: 2.6030925604886e+01,
	},
}
