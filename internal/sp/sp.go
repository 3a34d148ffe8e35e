// Package sp implements the NPB SP pseudo-application: the Beam-Warming
// approximate factorization of the 3-D compressible Navier-Stokes
// equations. Diagonalization of each direction's implicit operator
// reduces the 5x5 block systems of BT to three independent *scalar
// pentadiagonal* systems per grid line (for the convective eigenvalue
// and the two acoustic eigenvalues u±c), bracketed by the
// block-diagonal eigenvector transforms txinvr, ninvr, pinvr and
// tzetar.
package sp

import (
	"fmt"
	"math"
	"time"

	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// classSpec defines one SP problem class.
type classSpec struct {
	size  int
	niter int
	dt    float64
}

var classes = map[byte]classSpec{
	'S': {12, 100, 0.015},
	'W': {36, 400, 0.0015},
	'A': {64, 400, 0.0015},
	'B': {102, 400, 0.001},
	'C': {162, 400, 0.00067},
}

// bts is the sqrt(1/2) constant the Fortran calls bt.
var bts = math.Sqrt(0.5)

// Benchmark is a configured SP instance.
type Benchmark struct {
	Class   byte
	n       int
	niter   int
	threads int
	env     kernel.Env
	c       nscore.Consts
	f       *nscore.Field

	// Derived constants specific to SP's scalar solver.
	dttx1, dttx2, dtty1, dtty2, dttz1, dttz2 float64
	c2dttx1, c2dtty1, c2dttz1                float64
	comz1, comz4, comz5, comz6               float64
	dxmax, dymax, dzmax                      float64

	scratch []*lineScratch

	// Steady-state machinery: the region bodies below are built once by
	// New and reused every ADI step (a closure literal at the call site
	// would allocate per invocation), keeping the timed loop free of
	// heap allocation (enforced by internal/allocgate). tm stages the
	// current step's team; the dirParams are precomputed from the
	// constants.
	tm         *team.Team
	pX, pY, pZ dirParams
	txinvrBody func(id int)
	ninvrBody  func(id int)
	pinvrBody  func(id int)
	tzetarBody func(id int)
	xBody      func(id int)
	yBody      func(id int)
	zBody      func(id int)
}

// lineScratch is the per-worker storage for one pentadiagonal line
// solve: the three five-band coefficient sets plus the eigenvalue rows.
type lineScratch struct {
	lhs, lhsp, lhsm []float64 // 5 bands x line length
	cv, rho         []float64
}

func newLineScratch(n int) *lineScratch {
	return &lineScratch{
		lhs:  make([]float64, 5*n),
		lhsp: make([]float64, 5*n),
		lhsm: make([]float64, 5*n),
		cv:   make([]float64, n),
		rho:  make([]float64, n),
	}
}

// band returns a pointer into the packed band array: coefficient band
// (0..4) of cell i.
func band(a []float64, b, i int) *float64 { return &a[b+5*i] }

// New configures SP for the given class and thread count. With
// env.Timers set, the factorization phases are profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	spec, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("sp: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("sp: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, n: spec.size, niter: spec.niter, threads: threads, env: env}
	b.c = nscore.SetConstants(spec.size, spec.dt)
	b.f = nscore.NewField(spec.size, true)
	c := &b.c
	b.dttx1 = c.Dt * c.Tx1
	b.dttx2 = c.Dt * c.Tx2
	b.dtty1 = c.Dt * c.Ty1
	b.dtty2 = c.Dt * c.Ty2
	b.dttz1 = c.Dt * c.Tz1
	b.dttz2 = c.Dt * c.Tz2
	b.c2dttx1 = 2.0 * b.dttx1
	b.c2dtty1 = 2.0 * b.dtty1
	b.c2dttz1 = 2.0 * b.dttz1
	dtdssp := c.Dt * c.Dssp
	b.comz1 = dtdssp
	b.comz4 = 4.0 * dtdssp
	b.comz5 = 5.0 * dtdssp
	b.comz6 = 6.0 * dtdssp
	b.dxmax = math.Max(c.Dx3, c.Dx4)
	b.dymax = math.Max(c.Dy2, c.Dy4)
	b.dzmax = math.Max(c.Dz2, c.Dz3)
	b.scratch = make([]*lineScratch, threads)
	for i := range b.scratch {
		b.scratch[i] = newLineScratch(spec.size)
	}
	b.buildBodies()
	return b, nil
}

// buildTransformBodies constructs the pointwise eigenvector-transform
// bodies once (see buildBodies).
func (b *Benchmark) buildTransformBodies() {
	n := b.n
	f := b.f
	c := &b.c

	// txinvr transform, k planes chunked
	b.txinvrBody = func(id int) {
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						s := f.SAt(i, j, k)
						ro := f.FAt(0, i, j, k)
						ru1 := f.RhoI[s]
						uu, vv, ww := f.Us[s], f.Vs[s], f.Ws[s]
						ac := f.Speed[s]
						ac2inv := 1.0 / (ac * ac)
						r1, r2, r3, r4, r5 := f.Rhs[ro], f.Rhs[ro+1], f.Rhs[ro+2], f.Rhs[ro+3], f.Rhs[ro+4]
						t1 := c.C2 * ac2inv * (f.Qs[s]*r1 - uu*r2 - vv*r3 - ww*r4 + r5)
						t2 := bts * ru1 * (uu*r1 - r2)
						t3 := bts * ru1 * ac * t1
						f.Rhs[ro] = r1 - t1
						f.Rhs[ro+1] = -ru1 * (ww*r1 - r4)
						f.Rhs[ro+2] = ru1 * (vv*r1 - r3)
						f.Rhs[ro+3] = -t2 + t3
						f.Rhs[ro+4] = t2 + t3
					}
				}
			}
		}
	}

	// ninvr transform, k planes chunked
	b.ninvrBody = func(id int) {
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						ro := f.FAt(0, i, j, k)
						r1, r2, r3, r4, r5 := f.Rhs[ro], f.Rhs[ro+1], f.Rhs[ro+2], f.Rhs[ro+3], f.Rhs[ro+4]
						t1 := bts * r3
						t2 := 0.5 * (r4 + r5)
						f.Rhs[ro] = -r2
						f.Rhs[ro+1] = r1
						f.Rhs[ro+2] = bts * (r4 - r5)
						f.Rhs[ro+3] = -t1 + t2
						f.Rhs[ro+4] = t1 + t2
					}
				}
			}
		}
	}

	// pinvr transform, k planes chunked
	b.pinvrBody = func(id int) {
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						ro := f.FAt(0, i, j, k)
						r1, r2, r3, r4, r5 := f.Rhs[ro], f.Rhs[ro+1], f.Rhs[ro+2], f.Rhs[ro+3], f.Rhs[ro+4]
						t1 := bts * r1
						t2 := 0.5 * (r4 + r5)
						f.Rhs[ro] = bts * (r4 - r5)
						f.Rhs[ro+1] = -r3
						f.Rhs[ro+2] = r2
						f.Rhs[ro+3] = -t1 + t2
						f.Rhs[ro+4] = t1 + t2
					}
				}
			}
		}
	}

	// tzetar transform, k planes chunked
	b.tzetarBody = func(id int) {
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						s := f.SAt(i, j, k)
						ro := f.FAt(0, i, j, k)
						xvel, yvel, zvel := f.Us[s], f.Vs[s], f.Ws[s]
						ac := f.Speed[s]
						ac2u := ac * ac
						r1, r2, r3, r4, r5 := f.Rhs[ro], f.Rhs[ro+1], f.Rhs[ro+2], f.Rhs[ro+3], f.Rhs[ro+4]
						uzik1 := f.U[f.UAt(0, i, j, k)]
						btuz := bts * uzik1
						t1 := btuz / ac * (r4 + r5)
						t2 := r3 + t1
						t3 := btuz * (r4 - r5)
						f.Rhs[ro] = t2
						f.Rhs[ro+1] = -uzik1*r2 + xvel*t2
						f.Rhs[ro+2] = uzik1*r1 + yvel*t2
						f.Rhs[ro+3] = zvel*t2 + t3
						f.Rhs[ro+4] = uzik1*(-xvel*r2+yvel*r1) +
							f.Qs[s]*t2 + c.C2iv*ac2u*t1 + zvel*t3
					}
				}
			}
		}
	}
}

// txinvr premultiplies the rhs by the inverse of the x-direction
// eigenvector matrix (block-diagonal, pointwise).
func (b *Benchmark) txinvr(tm *team.Team) {
	b.tm = tm
	tm.Run(b.txinvrBody)
}

// ninvr applies the x-direction eigenvector matrix after the x sweep.
func (b *Benchmark) ninvr(tm *team.Team) {
	b.tm = tm
	tm.Run(b.ninvrBody)
}

// pinvr applies the y-direction eigenvector matrix after the y sweep.
func (b *Benchmark) pinvr(tm *team.Team) {
	b.tm = tm
	tm.Run(b.pinvrBody)
}

// tzetar applies the z-direction eigenvector matrix after the z sweep,
// returning to conserved-variable space.
func (b *Benchmark) tzetar(tm *team.Team) {
	b.tm = tm
	tm.Run(b.tzetarBody)
}

// adi advances one SP time step.
func (b *Benchmark) adi(tm *team.Team) {
	b.env.Start("rhs")
	b.f.ComputeRHS(&b.c, tm)
	b.env.Stop("rhs")
	b.env.Start("txinvr")
	b.txinvr(tm)
	b.env.Stop("txinvr")
	b.env.Start("xsolve")
	b.xSolve(tm)
	b.env.Stop("xsolve")
	b.env.Start("ysolve")
	b.ySolve(tm)
	b.env.Stop("ysolve")
	b.env.Start("zsolve")
	b.zSolve(tm)
	b.env.Stop("zsolve")
	b.env.Start("add")
	b.f.Add(tm)
	b.env.Stop("add")
}

// Iter advances one steady-state time step on tm, whose Size must equal
// the thread count the Benchmark was built with. Every region body is
// prebuilt, so the step performs no heap allocation (enforced at a zero
// budget by internal/allocgate).
func (b *Benchmark) Iter(tm *team.Team) {
	b.adi(tm)
}

// Result reports one SP run.
type Result struct {
	XCR [5]float64
	XCE [5]float64
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the benchmark following sp.f: initialization, one
// feed-through step, re-initialization, then niter timed steps and
// verification.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()

	b.f.Initialize(&b.c)
	b.f.ExactRHS(&b.c)

	b.adi(tm)
	b.f.Initialize(&b.c)

	start := time.Now()
	for step := 1; step <= b.niter && !tm.Cancelled(); step++ {
		b.Iter(tm)
	}
	elapsed := time.Since(start)

	b.f.ComputeRHS(&b.c, tm)
	xcr := b.f.RHSNorm()
	for m := 0; m < 5; m++ {
		xcr[m] /= b.c.Dt
	}
	xce := b.f.ErrorNorm(&b.c)

	var res Result
	res.XCR = xcr
	res.XCE = xce
	nf := float64(b.n)
	flops := float64(b.niter) * (881.174*nf*nf*nf - 4683.91*nf*nf + 11484.5*nf - 19272.4)

	rep := &verify.Report{Tier: verify.TierOfficial}
	if ref, ok := reference[b.Class]; ok {
		for m := 0; m < 5; m++ {
			rep.Add(fmt.Sprintf("xcr(%d)", m+1), xcr[m], ref.xcr[m])
		}
		for m := 0; m < 5; m++ {
			rep.Add(fmt.Sprintf("xce(%d)", m+1), xce[m], ref.xce[m])
		}
	} else {
		rep.Tier = verify.TierNone
	}
	res.Outcome = b.env.Outcome(elapsed, flops*1e-6, rep)
	return res
}

// refVals holds the 5+5 verification norms of one class.
type refVals struct {
	xcr, xce [5]float64
}

// reference verification norms for classes S, W and A: produced by this
// implementation and agreeing with the published verify.f constants to
// 11+ significant digits where cross-checked (S and A). Classes B and C
// run unverified.
var reference = map[byte]refVals{
	'S': {
		xcr: [5]float64{2.7470315451360e-02, 1.0360746705279e-02, 1.6235745065073e-02, 1.5840557224476e-02, 3.4849040609406e-02},
		xce: [5]float64{2.7289258557395e-05, 1.0364446640832e-05, 1.6154798287135e-05, 1.5750704994500e-05, 3.4177666183436e-05},
	},
	'W': {
		xcr: [5]float64{1.8932537335838e-03, 1.7170754477733e-04, 2.7781533509356e-04, 2.8874754099850e-04, 3.1436111612420e-03},
		xce: [5]float64{7.5420885995335e-05, 6.5128522530843e-06, 1.0490922856890e-05, 1.1288386715353e-05, 1.2128456397730e-04},
	},
	'A': {
		xcr: [5]float64{2.4799822399302e+00, 1.1276337964370e+00, 1.5028977888770e+00, 1.4217816211694e+00, 2.1292113035138e+00},
		xce: [5]float64{1.0900140297816e-04, 3.7343951769286e-05, 5.0092785406538e-05, 4.7671093939533e-05, 1.3621613399212e-04},
	},
}
