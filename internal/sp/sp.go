// Package sp implements the NPB SP pseudo-application: the Beam-Warming
// approximate factorization of the 3-D compressible Navier-Stokes
// equations. Diagonalization of each direction's implicit operator
// reduces the 5x5 block systems of BT to three independent *scalar
// pentadiagonal* systems per grid line (for the convective eigenvalue
// and the two acoustic eigenvalues u±c), bracketed by the
// block-diagonal eigenvector transforms txinvr, ninvr, pinvr and
// tzetar, which run inside the sweeps (solve.go). The main program and
// the line queue of its sweeps are nscore.App's, shared with BT; this
// package brings the class table, the flop count, the reference norms
// and the scalar solve of eight lines.
package sp

import (
	"math"

	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
)

// code is SP's part of the main program. The reference norms of
// classes S, W and A were produced by this implementation and agree
// with the published verify.f constants to 11+ significant digits where
// cross-checked (S and A). Classes B and C run unverified.
var code = nscore.Code{
	Name: "sp",
	Classes: map[byte]nscore.Class{
		'S': {Size: 12, Niter: 100, Dt: 0.015},
		'W': {Size: 36, Niter: 400, Dt: 0.0015},
		'A': {Size: 64, Niter: 400, Dt: 0.0015},
		'B': {Size: 102, Niter: 400, Dt: 0.001},
		'C': {Size: 162, Niter: 400, Dt: 0.00067},
	},
	Norms: map[byte]nscore.Norms{
		'S': {
			XCR: [5]float64{2.7470315451360e-02, 1.0360746705279e-02, 1.6235745065073e-02, 1.5840557224476e-02, 3.4849040609406e-02},
			XCE: [5]float64{2.7289258557395e-05, 1.0364446640832e-05, 1.6154798287135e-05, 1.5750704994500e-05, 3.4177666183436e-05},
		},
		'W': {
			XCR: [5]float64{1.8932537335838e-03, 1.7170754477733e-04, 2.7781533509356e-04, 2.8874754099850e-04, 3.1436111612420e-03},
			XCE: [5]float64{7.5420885995335e-05, 6.5128522530843e-06, 1.0490922856890e-05, 1.1288386715353e-05, 1.2128456397730e-04},
		},
		'A': {
			XCR: [5]float64{2.4799822399302e+00, 1.1276337964370e+00, 1.5028977888770e+00, 1.4217816211694e+00, 2.1292113035138e+00},
			XCE: [5]float64{1.0900140297816e-04, 3.7343951769286e-05, 5.0092785406538e-05, 4.7671093939533e-05, 1.3621613399212e-04},
		},
	},
	Speed:     true,
	StepFlops: func(n float64) float64 { return 881.174*n*n*n - 4683.91*n*n + 11484.5*n - 19272.4 },
}

// bts is the sqrt(1/2) constant the Fortran calls bt.
var bts = math.Sqrt(0.5)

// Benchmark is a configured SP instance.
type Benchmark struct {
	*nscore.App

	// Derived constants specific to SP's scalar solver.
	dttx1, dttx2, dtty1, dtty2, dttz1, dttz2 float64
	c2dttx1, c2dtty1, c2dttz1                float64
	comz1, comz4, comz5, comz6               float64
	dxmax, dymax, dzmax                      float64

	diss   [][5]float64 // per row of a line, what the dissipation subtracts from each band
	groups []*group     // per worker
	dirs   [3]dirSpec   // xi, eta and zeta, precomputed from the constants
}

// New configures SP for the given class and thread count. With
// env.Timers set, the factorization phases are profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	return newBenchmark(&code, class, threads, env)
}

// newBenchmark builds SP from code, whose classes' grids have at least
// 6 points a side.
func newBenchmark(code *nscore.Code, class byte, threads int, env kernel.Env) (*Benchmark, error) {
	b := new(Benchmark)
	app, err := nscore.NewApp(code, class, threads, env, b.solveGroup)
	if err != nil {
		return nil, err
	}
	b.App = app
	n, c := b.N, &b.C
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
	b.diss = dissipation(n, b.comz1, b.comz4, b.comz5, b.comz6)
	groups := make([]*group, threads)
	for i := range groups {
		groups[i] = newGroup(n)
	}
	b.groups = groups
	b.dirs = [3]dirSpec{
		{dtt1: b.dttx1, dtt2: b.dttx2, c2dtt1: b.c2dttx1,
			d2or3or4: c.Dx2, d5: c.Dx5, dmax: b.dxmax, d1: c.Dx1},
		{dtt1: b.dtty1, dtt2: b.dtty2, c2dtt1: b.c2dtty1,
			d2or3or4: c.Dy3, d5: c.Dy5, dmax: b.dymax, d1: c.Dy1},
		{dtt1: b.dttz1, dtt2: b.dttz2, c2dtt1: b.c2dttz1,
			d2or3or4: c.Dz4, d5: c.Dz5, dmax: b.dzmax, d1: c.Dz1},
	}
	return b, nil
}
