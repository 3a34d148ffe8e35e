package bt

import (
	"npbgo/internal/nscore"
	"npbgo/internal/simd"
)

// The three ADI sweeps share one implementation parameterized by
// direction: the flux and viscous Jacobians have the same shape in x, y
// and z with the convective velocity component swapped, and the
// block-tridiagonal assembly differs only in the dt*t?1 / dt*t?2
// factors and the d?1..d?5 diffusion diagonals. This is exactly the
// symmetry the Fortran x_solve/y_solve/z_solve triplicates.
//
// Lines are solved eight at a time: each worker queues the lines of its
// share (nscore.App's sweeps) and, whenever eight are queued, solveGroup
// sets up and solves all eight in lane form, one lane kernel call per
// step of the block Thomas algorithm. A group may span planes and
// chunks; the last group of a worker's share may be short. The lines'
// right-hand sides, state and scalars move between the field's rows and
// lane form by simd.ToLanes and simd.FromLanes.

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
	// A cell's gathered state of each lane: the vec8 of U, then the pt8
	// of RhoI, Qs and Square.
	state8 = [8][8]float64
)

// dirSpec carries the per-direction parameters of the implicit solve.
type dirSpec struct {
	cv int // velocity component along the line: 1 (u), 2 (v), 3 (w)
	// jacobiansX8, Y8 or Z8, by cv.
	jacobians func(live int, fjac, njac *blk8, u *vec8, s *pt8, c1, c2, c3c4, r43, c1345 float64)
	jac       jacConsts
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
func newDirSpec(c *nscore.Consts, cv int, t1, t2 float64, d [5]float64) dirSpec {
	tmp1, tmp2 := c.Dt*t1, c.Dt*t2
	ds := dirSpec{cv: cv, jacobians: jacobiansX8,
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

// group is one worker's lane scratch: the queued lines it solves and,
// in lane form, a window of their cells and the upper diagonal and
// right-hand side of every cell. Holding one cell's lower and main
// blocks instead of every cell's keeps a group in L1 (DESIGN.md §34).
type group struct {
	*window
	nscore.Lines
	cc  []blk8 // one block per cell
	rhs []vec8
}

// window is a group's lane form of a tile of eight cells' gathered
// state, the Jacobians of three consecutive cells and the lower and
// main block diagonals of the cell being eliminated. Each array is a
// whole number of 64-byte cache lines, and a window holds no pointer,
// so its allocation has no header and starts on a cache line: none of
// its 64-byte elements straddles two lines, which would cost the
// AVX-512 kernels two accesses a load (TestGroupAligned).
type window struct {
	fjac, njac [3]blk8 // cell l's at l%3
	aa, bb     blk8
	state      [8]state8 // cell l's at l%8
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
		matvecSub8(g.N, &g.aa, &r[l-1], &r[l])
		matmulSub8(g.N, &g.aa, &g.cc[l-1], &g.bb)
	}
	if l < isize {
		binvcrhs8(g.N, &g.bb, &g.cc[l], &r[l])
	} else {
		binvrhs8(g.N, &g.bb, &r[l])
	}
}

// backSubstitute finishes the solve after the last cell's elimination,
// leaving the solutions in rhs.
func (g *group) backSubstitute(isize int) {
	for l := isize - 1; l >= 0; l-- {
		matvecSub8(g.N, &g.cc[l], &g.rhs[l+1], &g.rhs[l])
	}
}

// cellJacobians builds the Jacobians of cell l of the group's lines
// into slot l%3. Cells are called in order from 0, and every eighth
// gathers the tile of the next eight from the state U and the scalars
// ComputeRHS left.
func (b *Benchmark) cellJacobians(g *group, ds *dirSpec, l int) {
	if l%8 == 0 {
		f := b.F
		rows := [8][]float64{f.U[0], f.U[1], f.U[2], f.U[3], f.U[4], f.RhoI, f.Qs, f.Square}
		simd.ToLanes(g.state[:min(8, b.N-l)], rows[:], &g.Lines, l)
	}
	k, st := &ds.jac, &g.state[l%8]
	ds.jacobians(g.N, &g.fjac[l%3], &g.njac[l%3], (*vec8)(st[:5]), (*pt8)(st[5:]), k.c1, k.c2, k.c3c4, k.r43, k.c1345)
}

// assembleCell builds interior cell l's blocks into aa, bb and cc[l]
// from the Jacobians of cells l-1, l and l+1.
func (g *group) assembleCell(ds *dirSpec, l int) {
	lo, mid, hi := (l-1)%3, l%3, (l+1)%3
	assemble8(g.N, &g.aa, &g.bb, &g.cc[l], &g.fjac[lo], &g.fjac[hi], &g.njac[lo], &g.njac[mid], &g.njac[hi],
		ds.mt2, ds.t1, ds.t12, ds.t2, ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4], ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
}

// solveGroup solves worker id's queued lines in direction d and writes
// their solutions back to Rhs (nscore.App's sweeps call it). Each cell
// is assembled just before its elimination step, the Jacobians one cell
// ahead, as the assembly of cell l reads those of l+1. Lanes past g.N
// are gathered as zeros, state and right-hand side alike (DESIGN.md
// §38), and are never written back.
func (b *Benchmark) solveGroup(id, d int, lines nscore.Lines) {
	g, ds, isize := b.groups[id], &b.dirs[d], b.N-1
	g.Lines = lines
	rhs := g.rhs[:isize+1]
	simd.ToLanes(rhs, b.F.Rhs[:], &g.Lines, 0)
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
	simd.FromLanes(b.F.Rhs[:], rhs, &g.Lines, 0)
}
