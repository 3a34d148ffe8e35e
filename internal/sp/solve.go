package sp

import (
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// The three factor sweeps share one implementation parameterized by
// direction. Lines are solved eight at a time: each worker queues the
// lines of its share into a group and, whenever eight are queued,
// gathers them into lane form, runs every per-cell step of the solve as
// one lane kernel call (kernels.go) and scatters the solutions back to
// Rhs. A group may span planes and chunks; the last group of a
// worker's share may be short, and its spare lanes repeat lane 0's line
// and are never written back.
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
	// Strides in the scalar grid (point i + n*j + n*n*k): along the
	// line, between the lines of a plane, and of the index split over
	// the team.
	line, inner, outer int
	dtt1, dtt2, c2dtt1 float64
	// The eigenvalue bound's dx2/dy3/dz4, d?5, max of the other two
	// and d?1.
	d2or3or4, d5, dmax, d1 float64
}

// group is one worker's lane scratch: up to eight queued lines and, in
// lane form, every cell's right-hand side, factor rows and scalars.
type group struct {
	n       int    // lines queued
	start   [8]int // scalar-grid offset of each queued line's first point
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
// 5-vector and the scalars direction d reads. For eta and zeta lines,
// eight consecutive lines of one plane are eight adjacent points, so
// every row is copied eight lanes at a time; gather reports whether the
// group's lines are such.
func (b *Benchmark) gather(g *group, d int) (adjacent bool) {
	f, ds := b.f, &b.dirs[d]
	for q := g.n; q < 8; q++ {
		g.start[q] = g.start[0]
	}
	s0 := g.start[0]
	adjacent = d > 0
	for q, st := range g.start {
		adjacent = adjacent && st == s0+q
	}
	vel := [3][]float64{f.Us, f.Vs, f.Ws}[d]
	rho := f.U[0]
	// The rows of the scalars s[e] an adjacent eta or zeta group
	// copies, nil for those eigen sets or the direction does not read.
	scalars := [8][]float64{0: vel, 2: f.Speed, 3: f.RhoI}
	if d == 2 {
		scalars[4], scalars[5], scalars[6], scalars[7] = f.Qs, f.Us, f.Vs, rho
	}
	r0, r1, r2, r3, r4 := nscore.Components(&f.Rhs)
	for l := range g.s {
		s, r := &g.s[l], &g.r[l]
		if adjacent {
			p := s0 + l*ds.line
			for c, row := range &f.Rhs {
				r[c] = [8]float64(row[p:])
			}
			for e, row := range &scalars {
				if row != nil {
					s[e] = [8]float64(row[p:])
				}
			}
			continue
		}
		for q, st := range g.start {
			p := st + l*ds.line
			s[0][q], s[2][q], s[3][q] = vel[p], f.Speed[p], f.RhoI[p]
			switch d {
			case 0:
				s[4][q], s[5][q], s[6][q] = f.Qs[p], f.Vs[p], f.Ws[p]
			case 2:
				s[4][q], s[5][q], s[6][q] = f.Qs[p], f.Us[p], f.Vs[p]
				s[7][q] = rho[p]
			}
			r[0][q], r[1][q], r[2][q], r[3][q], r[4][q] = r0[p], r1[p], r2[p], r3[p], r4[p]
		}
	}
	return adjacent
}

// solveGroup solves the group's queued lines in direction d, the
// transforms included, and writes their solutions back to Rhs.
func (b *Benchmark) solveGroup(g *group, d int) {
	c, ds, n := &b.c, &b.dirs[d], b.n
	adjacent := b.gather(g, d)
	r, u, p, m, s := g.r[:n], g.u[:n], g.p[:n], g.m[:n], g.s[:n]
	if d == 0 {
		for l := 1; l < n-1; l++ {
			txinvr8(g.n, &r[l], &s[l], bts, c.C2)
		}
	}
	for l := range s {
		eigen8(g.n, &s[l], c.C3c4, c.Con43, c.C1c5, ds.d2or3or4, ds.d5, ds.dmax, ds.d1)
	}
	// Identity boundary rows for all three factors (lhsinit).
	for _, l := range [2]int{0, n - 1} {
		u[l] = vec8{2: {1, 1, 1, 1, 1, 1, 1, 1}}
		p[l], m[l] = u[l], u[l]
	}
	for l := 1; l < n-1; l++ {
		t := &b.diss[l]
		lhsRow8(g.n, &u[l], &p[l], &m[l], &s[l-1], &s[l], &s[l+1], ds.dtt1, ds.dtt2, ds.c2dtt1, t[0], t[1], t[2], t[3], t[4])
	}
	for i := 0; i+2 < n; i++ {
		forwardStep8(g.n, &u[i], &u[i+1], &u[i+2], &p[i], &p[i+1], &p[i+2], &m[i], &m[i+1], &m[i+2], &r[i], &r[i+1], &r[i+2])
	}
	lastRows8(g.n, &u[n-2], &u[n-1], &p[n-2], &p[n-1], &m[n-2], &m[n-1], &r[n-2], &r[n-1])
	for i := n - 3; i >= 0; i-- {
		backStep8(g.n, &u[i], &p[i], &m[i], &r[i], &r[i+1], &r[i+2])
	}
	for l := 1; l < n-1; l++ {
		switch d {
		case 0:
			ninvr8(g.n, &r[l], bts)
		case 1:
			pinvr8(g.n, &r[l], bts)
		default:
			tzetar8(g.n, &r[l], &s[l], bts, c.C2iv)
		}
	}
	if adjacent {
		for l := range r {
			p := g.start[0] + l*ds.line
			for c, row := range &b.f.Rhs {
				*(*[8]float64)(row[p:]) = r[l][c]
			}
		}
		g.n = 0
		return
	}
	r0, r1, r2, r3, r4 := nscore.Components(&b.f.Rhs)
	for l := range r {
		v := &r[l]
		for q, st := range g.start {
			if q < g.n {
				p := st + l*ds.line
				r0[p], r1[p], r2[p], r3[p], r4[p] = v[0][q], v[1][q], v[2][q], v[3][q], v[4][q]
			}
		}
	}
	g.n = 0
}

// buildBodies constructs the three sweep bodies once. Each is a
// func(id int) handed straight to Team.Run; chunk bounds come from the
// team's loop iterator (honoring the configured schedule), per-worker
// scratch from the groups and the team from the tm staging field, so
// the ADI loop creates no closures.
func (b *Benchmark) buildBodies() {
	n, c := b.n, &b.c
	// xi lines along i, k planes split; eta lines along j, k planes
	// split; zeta lines along k, j rows split.
	b.dirs = [3]dirSpec{
		{line: 1, inner: n, outer: n * n, dtt1: b.dttx1, dtt2: b.dttx2, c2dtt1: b.c2dttx1,
			d2or3or4: c.Dx2, d5: c.Dx5, dmax: b.dxmax, d1: c.Dx1},
		{line: n, inner: 1, outer: n * n, dtt1: b.dtty1, dtt2: b.dtty2, c2dtt1: b.c2dtty1,
			d2or3or4: c.Dy3, d5: c.Dy5, dmax: b.dymax, d1: c.Dy1},
		{line: n * n, inner: 1, outer: n, dtt1: b.dttz1, dtt2: b.dttz2, c2dtt1: b.c2dttz1,
			d2or3or4: c.Dz4, d5: c.Dz5, dmax: b.dzmax, d1: c.Dz1},
	}
	for d := range b.dirs {
		ds := &b.dirs[d]
		b.bodies[d] = func(id int) {
			g := b.groups[id]
			g.n = 0
			for it := b.tm.Loop(id, 1, n-1); it.Next(); {
				for o := it.Lo; o < it.Hi; o++ {
					for a := 1; a < n-1; a++ {
						g.start[g.n] = o*ds.outer + a*ds.inner
						g.n++
						if g.n == 8 {
							b.solveGroup(g, d)
						}
					}
				}
			}
			if g.n > 0 {
				b.solveGroup(g, d)
			}
		}
	}
}

// xSolve runs the xi-direction factor sweep, txinvr before it and
// ninvr after it folded in.
func (b *Benchmark) xSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.bodies[0])
}

// ySolve runs the eta-direction factor sweep, pinvr folded in.
func (b *Benchmark) ySolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.bodies[1])
}

// zSolve runs the zeta-direction factor sweep, tzetar folded in.
func (b *Benchmark) zSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.bodies[2])
}
