package sp

import (
	"npbgo/internal/nscore"
	"npbgo/internal/simd"
)

// The three factor sweeps share one implementation parameterized by
// direction. Lines are solved eight at a time: each worker queues the
// lines of its share (nscore.App's sweeps) and, whenever eight are
// queued, solveGroup gathers them into lane form, runs every per-cell
// step of the solve as one lane kernel call (kernels.go) and scatters
// the solutions back to Rhs, both moves by simd.ToLanes and
// simd.FromLanes. A group may span planes and chunks; the last group of
// a worker's share may be short, and its spare lanes are gathered as
// zeros and never written back.
//
// The eigenvector transforms are pointwise, and each interior point
// lies on exactly one line of each direction, so they run inside the
// sweeps on cells 1..n-2 of each line: txinvr as an xi line is
// gathered, ninvr, pinvr and tzetar before an xi, eta or zeta line is
// scattered. That is the arithmetic of a separate pass over Rhs before
// or after the sweep, without the pass.

//go:generate go run ../lanegen

type (
	vec8  = [5][8]float64 // a 5-vector of each lane
	cell8 = [8][8]float64 // a cell's scalars of each lane (kernels.go)
)

// dirSpec carries the per-direction constants of the line solves.
type dirSpec struct {
	dtt1, dtt2, c2dtt1 float64
	// The eigenvalue bound's dx2/dy3/dz4, d?5, max of the other two
	// and d?1.
	d2or3or4, d5, dmax, d1 float64
}

// group is one worker's lane scratch: the queued lines it solves and,
// in lane form, every cell's right-hand side, factor rows and scalars.
type group struct {
	nscore.Lines
	r       []vec8
	u, p, m []vec8
	s       []cell8
}

func newGroup(n int) *group {
	return &group{
		r: make([]vec8, n),
		u: make([]vec8, n),
		p: make([]vec8, n),
		m: make([]vec8, n),
		s: make([]cell8, n),
	}
}

// dissipation returns, for each row of a line of n cells, what the
// fourth-order dissipation subtracts from each band of the convective
// factor: c where the Fortran subtracts c, -c where it adds c and +0
// where it does neither. Rows 1, 2, n-3 and n-2 have their own stencils;
// they are four distinct rows, so that no band is changed twice, only
// for n >= 6.
func dissipation(n int, comz1, comz4, comz5, comz6 float64) [][5]float64 {
	if n < 6 {
		panic("sp: the dissipation stencils need lines of at least 6 cells")
	}
	t := make([][5]float64, n)
	t[1] = [5]float64{2: -comz5, 3: comz4, 4: -comz1}
	t[2] = [5]float64{1: comz4, 2: -comz6, 3: comz4, 4: -comz1}
	for i := 3; i <= n-4; i++ {
		t[i] = [5]float64{-comz1, comz4, -comz6, comz4, -comz1}
	}
	t[n-3] = [5]float64{-comz1, comz4, -comz6, comz4}
	t[n-2] = [5]float64{-comz1, comz4, -comz5}
	return t
}

// gather loads the group's lines into lane form: each cell's Rhs
// 5-vector and the scalars direction d reads.
func (b *Benchmark) gather(g *group, d int) {
	f := b.F
	// The row of each scalar s[e], nil for those the direction does not
	// read and for s[1], which eigen8 sets.
	scalars := [8][]float64{0: [3][]float64{f.Us, f.Vs, f.Ws}[d], 2: f.Speed, 3: f.RhoI}
	switch d {
	case 0:
		scalars[4], scalars[5], scalars[6] = f.Qs, f.Vs, f.Ws
	case 2:
		scalars[4], scalars[5], scalars[6], scalars[7] = f.Qs, f.Us, f.Vs, f.U[0]
	}
	simd.ToLanes(g.r, f.Rhs[:], &g.Lines, 0)
	simd.ToLanes(g.s, scalars[:], &g.Lines, 0)
}

// solveGroup solves worker id's queued lines in direction d, the
// transforms included, and writes their solutions back to Rhs
// (nscore.App's sweeps call it).
func (b *Benchmark) solveGroup(id, d int, lines nscore.Lines) {
	g, c, ds, n := b.groups[id], &b.C, &b.dirs[d], b.N
	g.Lines = lines
	b.gather(g, d)
	r, u, p, m, s := g.r[:n], g.u[:n], g.p[:n], g.m[:n], g.s[:n]
	if d == 0 {
		for l := 1; l < n-1; l++ {
			txinvr8(g.N, &r[l], &s[l], bts, c.C2)
		}
	}
	for l := range s {
		eigen8(g.N, &s[l], c.C3c4, c.Con43, c.C1c5, ds.d2or3or4, ds.d5, ds.dmax, ds.d1)
	}
	// Identity boundary rows for all three factors (lhsinit).
	for _, l := range [2]int{0, n - 1} {
		u[l] = vec8{2: {1, 1, 1, 1, 1, 1, 1, 1}}
		p[l], m[l] = u[l], u[l]
	}
	for l := 1; l < n-1; l++ {
		t := &b.diss[l]
		lhsRow8(g.N, &u[l], &p[l], &m[l], &s[l-1], &s[l], &s[l+1], ds.dtt1, ds.dtt2, ds.c2dtt1, t[0], t[1], t[2], t[3], t[4])
	}
	for i := 0; i+2 < n; i++ {
		forwardStep8(g.N, &u[i], &u[i+1], &u[i+2], &p[i], &p[i+1], &p[i+2], &m[i], &m[i+1], &m[i+2], &r[i], &r[i+1], &r[i+2])
	}
	lastRows8(g.N, &u[n-2], &u[n-1], &p[n-2], &p[n-1], &m[n-2], &m[n-1], &r[n-2], &r[n-1])
	for i := n - 3; i >= 0; i-- {
		backStep8(g.N, &u[i], &p[i], &m[i], &r[i], &r[i+1], &r[i+2])
	}
	for l := 1; l < n-1; l++ {
		switch d {
		case 0:
			ninvr8(g.N, &r[l], bts)
		case 1:
			pinvr8(g.N, &r[l], bts)
		default:
			tzetar8(g.N, &r[l], &s[l], bts, c.C2iv)
		}
	}
	simd.FromLanes(b.F.Rhs[:], r, &g.Lines, 0)
}
