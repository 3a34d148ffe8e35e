package bt

import (
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// The three ADI sweeps share one implementation parameterized by
// direction: the flux and viscous Jacobians have the same shape in x, y
// and z with the convective velocity component swapped, and the
// block-tridiagonal assembly differs only in the dt*t?1 / dt*t?2
// factors and the d?1..d?5 diffusion diagonals. This is exactly the
// symmetry the Fortran x_solve/y_solve/z_solve triplicates.
//
// Lines are solved four at a time: each worker queues the lines of its
// share into a group and, whenever four are queued, sets up and solves
// all four in lane form, one lane kernel call per step of the block
// Thomas algorithm. A group may span planes and chunks; the last group
// of a worker's share may be short.

//go:generate go run ../lanegen

// Lane form: four lines side by side. Element e of lane q is at [e][q],
// so one 256-bit register holds element e of all four lines, and each
// <name>4 kernel (lanes.go, generated) runs its scalar namesake's
// statements once for all four, bit for bit what the scalar kernel
// computes on each lane (TestLaneKernelsMatchScalar).
type (
	blk4 = [25][4]float64 // a 5x5 block of each lane, column-major like the scalar blocks
	vec4 = [5][4]float64  // a 5-vector of each lane
	pt4  = [3][4]float64  // 1/rho, q/rho, 0.5*|m|^2/rho of each lane
)

// dirSpec carries the per-direction parameters of the implicit solve.
type dirSpec struct {
	cv int // velocity component along the line: 1 (u), 2 (v), 3 (w)
	// Strides in the scalar grid (point i + n*j + n*n*k): along the
	// line, between the lines of a plane, and of the index split over
	// the team.
	line, inner, outer int
	jac                jacConsts
	// assemble's folded constants: -dt*t?2, dt*t?1, dt*t?1*2.0,
	// dt*t?2, and per diagonal entry dt*t?1*d?m and
	// 1.0 + dt*t?1*2.0*d?m.
	mt2, t1, t12, t2 float64
	dm, bm           [5]float64
}

// jacConsts are the constants jacobiansX/Y/Z take.
type jacConsts struct {
	c1, c2, c3c4, r43, c1345 float64
}

// newDirSpec folds one direction's constants. Each fold is the double
// the unfolded per-element expression rounds first (assemble).
func newDirSpec(c *nscore.Consts, cv, line, inner, outer int, t1, t2 float64, d [5]float64) dirSpec {
	tmp1, tmp2 := c.Dt*t1, c.Dt*t2
	ds := dirSpec{cv: cv, line: line, inner: inner, outer: outer,
		jac: jacConsts{c1: c.C1, c2: c.C2, c3c4: c.C3c4, r43: c.Con43 * c.C3c4, c1345: c.C1345},
		mt2: -tmp2, t1: tmp1, t12: tmp1 * 2.0, t2: tmp2}
	for m := range d {
		ds.dm[m] = tmp1 * d[m]
		ds.bm[m] = 1.0 + tmp1*2.0*d[m]
	}
	return ds
}

// group is one worker's lane scratch: up to four queued lines and, in
// lane form, one cell's gathered state, the Jacobians and block
// diagonals of every cell and the right-hand side of the four lines.
type group struct {
	n     int    // lines queued
	start [4]int // scalar-grid offset of each queued line's first point
	u     vec4
	s     pt4

	fjac, njac []blk4 // one block per cell
	aa, bb, cc []blk4
	rhs        []vec4
}

func newGroup(cells int) *group {
	return &group{
		fjac: make([]blk4, cells),
		njac: make([]blk4, cells),
		aa:   make([]blk4, cells),
		bb:   make([]blk4, cells),
		cc:   make([]blk4, cells),
		rhs:  make([]vec4, cells),
	}
}

// lhsinit clears the first and last block rows of the lines and puts
// identity on their main diagonals, as the Fortran lhsinit.
func (g *group) lhsinit(isize int) {
	for _, i := range [2]int{0, isize} {
		g.aa[i] = blk4{}
		g.bb[i] = blk4{}
		g.cc[i] = blk4{}
		for m := 0; m < 25; m += 6 {
			g.bb[i][m] = [4]float64{1, 1, 1, 1}
		}
	}
}

// solve runs the block Thomas elimination on the group's four line
// systems of isize+1 cells, leaving the solutions in g.rhs.
func (g *group) solve(isize int) {
	aa, bb, cc, r := g.aa, g.bb, g.cc, g.rhs
	binvcrhs4(&bb[0], &cc[0], &r[0])
	for l := 1; l <= isize-1; l++ {
		matvecSub4(&aa[l], &r[l-1], &r[l])
		matmulSub4(&aa[l], &cc[l-1], &bb[l])
		binvcrhs4(&bb[l], &cc[l], &r[l])
	}
	matvecSub4(&aa[isize], &r[isize-1], &r[isize])
	matmulSub4(&aa[isize], &cc[isize-1], &bb[isize])
	binvrhs4(&bb[isize], &r[isize])
	for l := isize - 1; l >= 0; l-- {
		matvecSub4(&cc[l], &r[l+1], &r[l])
	}
}

// setupGroup builds the block diagonals of the group's queued lines:
// the Jacobians of every cell from the state U and the scalars
// ComputeRHS left, then aa/bb/cc. Lanes past g.n repeat lane 0's line.
func (b *Benchmark) setupGroup(g *group, ds *dirSpec) {
	f, k := b.f, &ds.jac
	isize := b.n - 1
	jacobians := jacobiansX4
	switch ds.cv {
	case 2:
		jacobians = jacobiansY4
	case 3:
		jacobians = jacobiansZ4
	}
	for q := g.n; q < 4; q++ {
		g.start[q] = g.start[0]
	}
	u0, u1, u2, u3, u4 := nscore.Components(&f.U)
	for l := 0; l <= isize; l++ {
		for q := 0; q < 4; q++ {
			p := g.start[q] + l*ds.line
			g.u[0][q], g.u[1][q], g.u[2][q], g.u[3][q], g.u[4][q] = u0[p], u1[p], u2[p], u3[p], u4[p]
			g.s[0][q], g.s[1][q], g.s[2][q] = f.RhoI[p], f.Qs[p], f.Square[p]
		}
		jacobians(&g.fjac[l], &g.njac[l], &g.u, &g.s, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
	}
	g.lhsinit(isize)
	for l := 1; l <= isize-1; l++ {
		assemble4(&g.aa[l], &g.bb[l], &g.cc[l], &g.fjac[l-1], &g.fjac[l+1], &g.njac[l-1], &g.njac[l], &g.njac[l+1],
			ds.mt2, ds.t1, ds.t12, ds.t2, ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4], ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
	}
}

// solveGroup sets up and solves the group's queued lines and writes
// their solutions back to Rhs. Lanes past g.n solve lane 0's system with
// a zero right-hand side, so every value they compute stays finite, and
// they are never written back.
func (b *Benchmark) solveGroup(g *group, ds *dirSpec) {
	isize := b.n - 1
	b.setupGroup(g, ds)
	r0, r1, r2, r3, r4 := nscore.Components(&b.f.Rhs)
	for l := 0; l <= isize; l++ {
		r := &g.rhs[l]
		for q := 0; q < 4; q++ {
			if q < g.n {
				p := g.start[q] + l*ds.line
				r[0][q], r[1][q], r[2][q], r[3][q], r[4][q] = r0[p], r1[p], r2[p], r3[p], r4[p]
			} else {
				r[0][q], r[1][q], r[2][q], r[3][q], r[4][q] = 0, 0, 0, 0, 0
			}
		}
	}
	g.solve(isize)
	for l := 0; l <= isize; l++ {
		r := &g.rhs[l]
		for q := 0; q < g.n; q++ {
			p := g.start[q] + l*ds.line
			r0[p], r1[p], r2[p], r3[p], r4[p] = r[0][q], r[1][q], r[2][q], r[3][q], r[4][q]
		}
	}
	g.n = 0
}

// buildBodies constructs the three solve-region bodies once. Each is a
// func(id int) handed straight to Team.Run; chunk bounds come from the
// team's loop iterator (honoring the configured schedule), per-worker
// scratch from the groups and the team from the tm staging field, so
// the ADI loop creates no closures.
func (b *Benchmark) buildBodies() {
	n, c := b.n, &b.c
	// xi lines along i, k planes split; eta lines along j, k planes
	// split; zeta lines along k, j rows split.
	b.dirs = [3]dirSpec{
		newDirSpec(c, 1, 1, n, n*n, c.Tx1, c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}),
		newDirSpec(c, 2, n, 1, n*n, c.Ty1, c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}),
		newDirSpec(c, 3, n*n, 1, n, c.Tz1, c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}),
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
						if g.n == 4 {
							b.solveGroup(g, ds)
						}
					}
				}
			}
			if g.n > 0 {
				b.solveGroup(g, ds)
			}
		}
	}
}

// xSolve performs the implicit solves along every xi line, planes k
// split over the team.
func (b *Benchmark) xSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.bodies[0])
}

// ySolve performs the implicit solves along every eta line.
func (b *Benchmark) ySolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.bodies[1])
}

// zSolve performs the implicit solves along every zeta line, rows j
// split over the team.
func (b *Benchmark) zSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.bodies[2])
}

// adi advances one time step, charging each phase to the profile
// timers when enabled.
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
