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
// Lines are solved eight at a time: each worker queues the lines of its
// share into a group and, whenever eight are queued, sets up and solves
// all eight in lane form, one lane kernel call per step of the block
// Thomas algorithm. A group may span planes and chunks; the last group
// of a worker's share may be short.

//go:generate go run ../lanegen

// Lane form: eight lines side by side. Element e of lane q is at [e][q],
// so one 512-bit register (or each 256-bit half) holds element e of all
// eight lines, and each <name>8 kernel (lanes.go, generated) runs its
// scalar namesake's statements once for all eight, bit for bit what the
// scalar kernel computes on each lane (TestLaneKernelsMatchScalar).
type (
	blk8 = [25][8]float64 // a 5x5 block of each lane, column-major like the scalar blocks
	vec8 = [5][8]float64  // a 5-vector of each lane
	pt8  = [3][8]float64  // 1/rho, q/rho, 0.5*|m|^2/rho of each lane
)

// dirSpec carries the per-direction parameters of the implicit solve.
type dirSpec struct {
	cv int // velocity component along the line: 1 (u), 2 (v), 3 (w)
	// jacobiansX8, Y8 or Z8, by cv.
	jacobians func(live int, fjac, njac *blk8, u *vec8, s *pt8, c1, c2, c3c4, r43, c1345 float64)
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
	ds := dirSpec{cv: cv, jacobians: jacobiansX8, line: line, inner: inner, outer: outer,
		jac: jacConsts{c1: c.C1, c2: c.C2, c3c4: c.C3c4, r43: c.Con43 * c.C3c4, c1345: c.C1345},
		mt2: -tmp2, t1: tmp1, t12: tmp1 * 2.0, t2: tmp2}
	switch cv {
	case 2:
		ds.jacobians = jacobiansY8
	case 3:
		ds.jacobians = jacobiansZ8
	}
	for m := range d {
		ds.dm[m] = tmp1 * d[m]
		ds.bm[m] = 1.0 + tmp1*2.0*d[m]
	}
	return ds
}

// group is one worker's lane scratch: up to eight queued lines and, in
// lane form, a window of their cells and the upper diagonal and
// right-hand side of every cell. Holding one cell's lower and main
// blocks instead of every cell's keeps a group in L1 (DESIGN.md §34).
type group struct {
	*window
	n     int    // lines queued
	start [8]int // scalar-grid offset of each queued line's first point
	cc    []blk8 // one block per cell
	rhs   []vec8
}

// window is a group's lane form of one cell's gathered state, the
// Jacobians of three consecutive cells and the lower and main block
// diagonals of the cell being eliminated. Each array is a whole number
// of 64-byte cache lines, and a window holds no pointer, so its
// allocation has no header and starts on a cache line: none of its
// 64-byte elements straddles two lines, which would cost the AVX-512
// kernels two accesses a load (TestGroupAligned).
type window struct {
	fjac, njac [3]blk8 // cell l's at l%3
	aa, bb     blk8
	u          vec8
	s          pt8
}

func newGroup(cells int) *group {
	return &group{window: new(window), cc: make([]blk8, cells), rhs: make([]vec8, cells)}
}

// boundary sets the blocks of the first or last cell l of the lines as
// the Fortran lhsinit: aa and cc[l] zero, bb the identity.
func (g *group) boundary(l int) {
	g.aa, g.bb, g.cc[l] = blk8{}, blk8{}, blk8{}
	for m := 0; m < 25; m += 6 {
		g.bb[m] = [8]float64{1, 1, 1, 1, 1, 1, 1, 1}
	}
}

// eliminate runs cell l's forward step of the block Thomas algorithm on
// the group's eight line systems of isize+1 cells, with the cell's
// blocks in aa, bb and cc[l]: cell 0 has no lower block, and the last
// cell no upper one.
func (g *group) eliminate(l, isize int) {
	r := g.rhs
	if l > 0 {
		matvecSub8(g.n, &g.aa, &r[l-1], &r[l])
		matmulSub8(g.n, &g.aa, &g.cc[l-1], &g.bb)
	}
	if l < isize {
		binvcrhs8(g.n, &g.bb, &g.cc[l], &r[l])
	} else {
		binvrhs8(g.n, &g.bb, &r[l])
	}
}

// backSubstitute finishes the solve after the last cell's elimination,
// leaving the solutions in rhs.
func (g *group) backSubstitute(isize int) {
	for l := isize - 1; l >= 0; l-- {
		matvecSub8(g.n, &g.cc[l], &g.rhs[l+1], &g.rhs[l])
	}
}

// cellJacobians gathers cell l of the group's lines from the state U
// and the scalars ComputeRHS left, and builds its Jacobians into slot
// l%3.
func (b *Benchmark) cellJacobians(g *group, ds *dirSpec, l int) {
	f, k := b.f, &ds.jac
	u0, u1, u2, u3, u4 := nscore.Components(&f.U)
	for q, st := range g.start {
		p := st + l*ds.line
		g.u[0][q], g.u[1][q], g.u[2][q], g.u[3][q], g.u[4][q] = u0[p], u1[p], u2[p], u3[p], u4[p]
		g.s[0][q], g.s[1][q], g.s[2][q] = f.RhoI[p], f.Qs[p], f.Square[p]
	}
	ds.jacobians(g.n, &g.fjac[l%3], &g.njac[l%3], &g.u, &g.s, k.c1, k.c2, k.c3c4, k.r43, k.c1345)
}

// assembleCell builds interior cell l's blocks into aa, bb and cc[l]
// from the Jacobians of cells l-1, l and l+1.
func (g *group) assembleCell(ds *dirSpec, l int) {
	lo, mid, hi := (l-1)%3, l%3, (l+1)%3
	assemble8(g.n, &g.aa, &g.bb, &g.cc[l], &g.fjac[lo], &g.fjac[hi], &g.njac[lo], &g.njac[mid], &g.njac[hi],
		ds.mt2, ds.t1, ds.t12, ds.t2, ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4], ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
}

// solveGroup solves the group's queued lines and writes their solutions
// back to Rhs. Each cell is assembled just before its elimination step,
// the Jacobians one cell ahead, as the assembly of cell l reads those of
// l+1. Lanes past g.n repeat lane 0's line with a zero right-hand side,
// so every value they compute stays finite, and they are never written
// back.
func (b *Benchmark) solveGroup(g *group, ds *dirSpec) {
	isize := b.n - 1
	for q := g.n; q < 8; q++ {
		g.start[q] = g.start[0]
	}
	r0, r1, r2, r3, r4 := nscore.Components(&b.f.Rhs)
	for l := 0; l <= isize; l++ {
		r := &g.rhs[l]
		for q := 0; q < 8; q++ {
			if q < g.n {
				p := g.start[q] + l*ds.line
				r[0][q], r[1][q], r[2][q], r[3][q], r[4][q] = r0[p], r1[p], r2[p], r3[p], r4[p]
			} else {
				r[0][q], r[1][q], r[2][q], r[3][q], r[4][q] = 0, 0, 0, 0, 0
			}
		}
	}
	b.cellJacobians(g, ds, 0)
	for l := 0; l <= isize; l++ {
		if l < isize {
			b.cellJacobians(g, ds, l+1)
		}
		if l == 0 || l == isize {
			g.boundary(l)
		} else {
			g.assembleCell(ds, l)
		}
		g.eliminate(l, isize)
	}
	g.backSubstitute(isize)
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
						if g.n == 8 {
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
