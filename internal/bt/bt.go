// Package bt implements the NPB BT pseudo-application: an Alternating
// Direction Implicit (ADI) approximate factorization of the 3-D
// compressible Navier-Stokes equations in which each direction yields a
// block-tridiagonal system of 5x5 blocks, solved with a block Thomas
// algorithm. BT leads the paper's structured-grid benchmark group, and
// its inner kernels (stencil fluxes, 5x5 block matrix-vector work) are
// exactly the basic operations of the paper's Table 1. The main program
// and the line queue of its sweeps are nscore.App's, shared with SP;
// this package brings the class table, the flop count, the reference
// norms and the block solve of eight lines (solve.go).
package bt

import (
	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
)

// code is BT's part of the main program. The reference norms of
// classes S, W and A were produced by this implementation and agree
// with the published NPB verify.f constants to at least 11 significant
// digits (the implementation's flux/forcing consistency is additionally
// pinned by TestForcingBalancesExactSolution), so they are treated as
// official-tier. Classes B and C run unverified.
var code = nscore.Code{
	Name: "bt",
	Classes: map[byte]nscore.Class{
		'S': {Size: 12, Niter: 60, Dt: 0.010},
		'W': {Size: 24, Niter: 200, Dt: 0.0008},
		'A': {Size: 64, Niter: 200, Dt: 0.0008},
		'B': {Size: 102, Niter: 200, Dt: 0.0003},
		'C': {Size: 162, Niter: 200, Dt: 0.0001},
	},
	Norms: map[byte]nscore.Norms{
		'S': {
			XCR: [5]float64{1.7034283709543e-01, 1.2975252070025e-02, 3.2527926989478e-02, 2.6436421275150e-02, 1.9211784131744e-01},
			XCE: [5]float64{4.9976913345804e-04, 4.5195666782965e-05, 7.3973765172944e-05, 7.3821238632376e-05, 8.9269630987489e-04},
		},
		'W': {
			XCR: [5]float64{1.1255904093440e+02, 1.1800075957308e+01, 2.7103297678457e+01, 2.4691749376689e+01, 2.6384278743168e+02},
			XCE: [5]float64{4.4196557360080e+00, 4.6385312600017e-01, 1.0115517499669e+00, 9.2358787299439e-01, 1.0180458377175e+01},
		},
		'A': {
			XCR: [5]float64{1.0806346714637e+02, 1.1319730901221e+01, 2.5974354511582e+01, 2.3665622544679e+01, 2.5278963211749e+02},
			XCE: [5]float64{4.2348416040525e+00, 4.4390282496996e-01, 9.6692480136346e-01, 8.8302063039765e-01, 9.7379901770829e+00},
		},
	},
	StepFlops: func(n float64) float64 { return 3478.8*n*n*n - 17655.7*n*n + 28023.7*n },
}

// Benchmark is a configured BT instance with all state allocated.
type Benchmark struct {
	*nscore.App

	groups []*group   // per-worker lane scratch of the line solves
	dirs   [3]dirSpec // xi, eta and zeta, precomputed from the constants
}

// New configures BT for the given class and thread count and allocates
// its fields. With env.Timers set, the ADI phases (rhs, the three
// solves, add) are profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	b := new(Benchmark)
	app, err := nscore.NewApp(&code, class, threads, env, b.solveGroup)
	if err != nil {
		return nil, err
	}
	b.App = app
	n, c := b.N, &b.C
	groups := make([]*group, threads)
	for i := range groups {
		groups[i] = newGroup(n)
	}
	b.groups = groups
	b.dirs = [3]dirSpec{
		newDirSpec(c, 1, c.Tx1, c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}),
		newDirSpec(c, 2, c.Ty1, c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}),
		newDirSpec(c, 3, c.Tz1, c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}),
	}
	return b, nil
}
