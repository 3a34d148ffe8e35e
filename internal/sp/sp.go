// Package sp implements the NPB SP pseudo-application: the Beam-Warming
// approximate factorization of the 3-D compressible Navier-Stokes
// equations. Diagonalization of each direction's implicit operator
// reduces the 5x5 block systems of BT to three independent *scalar
// pentadiagonal* systems per grid line (for the convective eigenvalue
// and the two acoustic eigenvalues u±c), bracketed by the
// block-diagonal eigenvector transforms txinvr, ninvr, pinvr and
// tzetar, which run inside the sweeps (solve.go).
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

	diss   [][5]float64 // per row of a line, what the dissipation subtracts from each band
	groups []*group     // per worker

	// Steady-state machinery: the region bodies below are built once by
	// New and reused every ADI step (a closure literal at the call site
	// would allocate per invocation), keeping the timed loop free of
	// heap allocation (enforced by internal/allocgate). tm stages the
	// current step's team; the dirSpecs are precomputed from the
	// constants.
	tm     *team.Team
	dirs   [3]dirSpec
	bodies [3]func(id int) // the xi, eta and zeta sweeps
}

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
	return newBenchmark(class, spec, threads, env), nil
}

// newBenchmark builds an SP instance of spec's grid (size >= 6).
func newBenchmark(class byte, spec classSpec, threads int, env kernel.Env) *Benchmark {
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
	b.diss = dissipation(spec.size, b.comz1, b.comz4, b.comz5, b.comz6)
	b.groups = make([]*group, threads)
	for i := range b.groups {
		b.groups[i] = newGroup(spec.size)
	}
	b.buildBodies()
	return b
}

// adi advances one SP time step.
func (b *Benchmark) adi(tm *team.Team) {
	b.env.Start("rhs")
	b.f.ComputeRHS(&b.c, tm)
	b.env.Stop("rhs")
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
