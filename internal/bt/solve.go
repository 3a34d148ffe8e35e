package bt

import (
	"npbgo/internal/grid"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// The three ADI sweeps share one implementation parameterized by
// direction: the flux Jacobian (fjac) and viscous Jacobian (njac) have
// the same shape in x, y and z with the convective velocity component
// swapped, and the block-tridiagonal assembly differs only in the
// dt*t?1 / dt*t?2 factors and the d?1..d?5 diffusion diagonals. This is
// exactly the symmetry the Fortran x_solve/y_solve/z_solve triplicates.

// dirSpec carries the per-direction parameters of the implicit solve.
type dirSpec struct {
	cv         int        // 0-based velocity component: 1 (u), 2 (v), 3 (w)
	tmp1, tmp2 float64    // dt*t1, dt*t2
	d          [5]float64 // diffusion diagonal Dx1..Dx5 / dy / dz
}

// buildJacobians fills ls.fjac/ls.njac for cell l of a line from the
// state at flat offsets (uoff = conserved variables, soff = scalars),
// delegating to the shared nscore Jacobian builder.
func (b *Benchmark) buildJacobians(ls *lineScratch, l int, uoff, soff int, cv int) {
	uvec := [5]float64{b.f.U[uoff], b.f.U[uoff+1], b.f.U[uoff+2], b.f.U[uoff+3], b.f.U[uoff+4]}
	nscore.FluxViscJacobians(&b.c, &uvec, b.f.RhoI[soff], b.f.Qs[soff], b.f.Square[soff],
		cv, &ls.fjac[l], &ls.njac[l])
}

// assembleLHS builds the aa/bb/cc block diagonals for the interior cells
// of a line of length isize+1, as the lhs section of x_solve.
func (b *Benchmark) assembleLHS(ls *lineScratch, isize int, ds *dirSpec) {
	ls.lhsinit(isize)
	t1, t2 := ds.tmp1, ds.tmp2
	for l := 1; l <= isize-1; l++ {
		am, bm, cm := &ls.aa[l], &ls.bb[l], &ls.cc[l]
		fm1, fp1 := &ls.fjac[l-1], &ls.fjac[l+1]
		nm1, nc, np1 := &ls.njac[l-1], &ls.njac[l], &ls.njac[l+1]
		for e := 0; e < 25; e++ {
			am[e] = -t2*fm1[e] - t1*nm1[e]
			bm[e] = t1 * 2.0 * nc[e]
			cm[e] = t2*fp1[e] - t1*np1[e]
		}
		for m := 0; m < 5; m++ {
			e := m + 5*m
			am[e] -= t1 * ds.d[m]
			bm[e] += 1.0 + t1*2.0*ds.d[m]
			cm[e] -= t1 * ds.d[m]
		}
	}
}

// solveLine runs the block Thomas elimination over one line whose rhs
// 5-vectors live at rhs[base+l*stride:]. The m-fastest layout makes
// every sweep direction affine in l, so a base and stride replace the
// per-line accessor closure the Fortran arrays never needed either.
func (b *Benchmark) solveLine(ls *lineScratch, isize int, rhs []float64, base, stride int) {
	at := func(l int) *[5]float64 { return grid.Vec5(rhs, base+l*stride) }
	binvcrhs(&ls.bb[0], &ls.cc[0], at(0))
	for l := 1; l <= isize-1; l++ {
		matvecSub(&ls.aa[l], at(l-1), at(l))
		matmulSub(&ls.aa[l], &ls.cc[l-1], &ls.bb[l])
		binvcrhs(&ls.bb[l], &ls.cc[l], at(l))
	}
	matvecSub(&ls.aa[isize], at(isize-1), at(isize))
	matmulSub(&ls.aa[isize], &ls.cc[isize-1], &ls.bb[isize])
	binvrhs(&ls.bb[isize], at(isize))
	for l := isize - 1; l >= 0; l-- {
		matvecSub(&ls.cc[l], at(l+1), at(l))
	}
}

// buildBodies constructs the three solve-region bodies once. Each is a
// func(id int) handed straight to Team.Run; chunk bounds come from the
// team's loop iterator (honoring the configured schedule), per-worker
// scratch from the pools and the team from the tm staging field, so the
// ADI loop creates no closures.
func (b *Benchmark) buildBodies() {
	n := b.n
	b.dsX = dirSpec{cv: 1, tmp1: b.c.Dt * b.c.Tx1, tmp2: b.c.Dt * b.c.Tx2,
		d: [5]float64{b.c.Dx1, b.c.Dx2, b.c.Dx3, b.c.Dx4, b.c.Dx5}}
	b.dsY = dirSpec{cv: 2, tmp1: b.c.Dt * b.c.Ty1, tmp2: b.c.Dt * b.c.Ty2,
		d: [5]float64{b.c.Dy1, b.c.Dy2, b.c.Dy3, b.c.Dy4, b.c.Dy5}}
	b.dsZ = dirSpec{cv: 3, tmp1: b.c.Dt * b.c.Tz1, tmp2: b.c.Dt * b.c.Tz2,
		d: [5]float64{b.c.Dz1, b.c.Dz2, b.c.Dz3, b.c.Dz4, b.c.Dz5}}

	// xi-line implicit solves, k planes chunked
	b.xBody = func(id int) {
		isize := n - 1
		ls := b.scratch[id]
		ls.clearJacobians()
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 0; i <= isize; i++ {
						b.buildJacobians(ls, i, b.f.UAt(0, i, j, k), b.f.SAt(i, j, k), b.dsX.cv)
					}
					b.assembleLHS(ls, isize, &b.dsX)
					b.solveLine(ls, isize, b.f.Rhs, b.f.FAt(0, 0, j, k), 5)
				}
			}
		}
	}

	// eta-line implicit solves, k planes chunked
	b.yBody = func(id int) {
		jsize := n - 1
		ls := b.scratch[id]
		ls.clearJacobians()
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for i := 1; i < n-1; i++ {
					for j := 0; j <= jsize; j++ {
						b.buildJacobians(ls, j, b.f.UAt(0, i, j, k), b.f.SAt(i, j, k), b.dsY.cv)
					}
					b.assembleLHS(ls, jsize, &b.dsY)
					b.solveLine(ls, jsize, b.f.Rhs, b.f.FAt(0, i, 0, k), 5*n)
				}
			}
		}
	}

	// zeta-line implicit solves, j rows chunked
	b.zBody = func(id int) {
		ksize := n - 1
		ls := b.scratch[id]
		ls.clearJacobians()
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for j := it.Lo; j < it.Hi; j++ {
				for i := 1; i < n-1; i++ {
					for k := 0; k <= ksize; k++ {
						b.buildJacobians(ls, k, b.f.UAt(0, i, j, k), b.f.SAt(i, j, k), b.dsZ.cv)
					}
					b.assembleLHS(ls, ksize, &b.dsZ)
					b.solveLine(ls, ksize, b.f.Rhs, b.f.FAt(0, i, j, 0), 5*n*n)
				}
			}
		}
	}
}

// xSolve performs the implicit solves along every xi line, planes k
// split over the team.
func (b *Benchmark) xSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.xBody)
}

// ySolve performs the implicit solves along every eta line.
func (b *Benchmark) ySolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.yBody)
}

// zSolve performs the implicit solves along every zeta line, rows j
// split over the team.
func (b *Benchmark) zSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.zBody)
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
