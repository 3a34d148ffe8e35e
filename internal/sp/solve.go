package sp

import (
	"npbgo/internal/grid"
	"npbgo/internal/team"
)

// Bands of the pentadiagonal coefficient rows: band 0 couples cell
// i-2, band 1 cell i-1, band 2 is the diagonal, bands 3 and 4 couple
// cells i+1 and i+2 (the Fortran lhs(1..5,i)).

// dirParams carries the per-direction constants of the scalar solver.
type dirParams struct {
	dtt1, dtt2, c2dtt1 float64
	dmax               float64
	d2or3or4, d5, d1   float64 // dx2/dy3/dz4, d?5, d?1 of the eigenvalue bound
}

// fillEigenRows loads the line's convective velocity cv and spectral
// bound rho for cell l from scalar offset soff.
func (b *Benchmark) fillEigenRows(ls *lineScratch, l, soff int, p *dirParams, vel []float64) {
	c := &b.c
	ru1 := c.C3c4 * b.f.RhoI[soff]
	ls.cv[l] = vel[soff]
	r := p.d2or3or4 + c.Con43*ru1
	if v := p.d5 + c.C1c5*ru1; v > r {
		r = v
	}
	if v := p.dmax + ru1; v > r {
		r = v
	}
	if p.d1 > r {
		r = p.d1
	}
	ls.rho[l] = r
}

// buildLHS assembles the three pentadiagonal factors for one line of
// length n, given the already-filled cv/rho rows and the line's sound
// speeds at speed[sbase+l*sstride].
func (b *Benchmark) buildLHS(ls *lineScratch, n int, p *dirParams, speed []float64, sbase, sstride int) {
	lhs, lhsp, lhsm := ls.lhs[:n], ls.lhsp[:n], ls.lhsm[:n]
	cv, rho := ls.cv[:n], ls.rho[:n]

	// Identity boundary rows for all three factors (lhsinit).
	for _, i := range [2]int{0, n - 1} {
		lhs[i] = [5]float64{2: 1}
		lhsp[i] = [5]float64{2: 1}
		lhsm[i] = [5]float64{2: 1}
	}

	// Rows are written element by element: a composite literal is built
	// in a stack temporary with 8-byte stores and copied out with 16-byte
	// loads, which the core cannot forward from those stores.
	for i := 1; i < n-1; i++ {
		r := &lhs[i]
		r[0] = 0
		r[1] = -p.dtt2*cv[i-1] - p.dtt1*rho[i-1]
		r[2] = 1.0 + p.c2dtt1*rho[i]
		r[3] = p.dtt2*cv[i+1] - p.dtt1*rho[i+1]
		r[4] = 0
	}

	// Fourth-order dissipation contributions.
	r := &lhs[1]
	r[2] += b.comz5
	r[3] -= b.comz4
	r[4] += b.comz1
	r = &lhs[2]
	r[1] -= b.comz4
	r[2] += b.comz6
	r[3] -= b.comz4
	r[4] += b.comz1
	for i := 3; i <= n-4; i++ {
		r := &lhs[i]
		r[0] += b.comz1
		r[1] -= b.comz4
		r[2] += b.comz6
		r[3] -= b.comz4
		r[4] += b.comz1
	}
	r = &lhs[n-3]
	r[0] += b.comz1
	r[1] -= b.comz4
	r[2] += b.comz6
	r[3] -= b.comz4
	r = &lhs[n-2]
	r[0] += b.comz1
	r[1] -= b.comz4
	r[2] += b.comz5

	// Acoustic factors u+c and u-c.
	for i := 1; i < n-1; i++ {
		u, up, um := &lhs[i], &lhsp[i], &lhsm[i]
		cm := p.dtt2 * speed[sbase+(i-1)*sstride]
		cp := p.dtt2 * speed[sbase+(i+1)*sstride]
		up[0], up[1], up[2], up[3], up[4] = u[0], u[1]-cm, u[2], u[3]+cp, u[4]
		um[0], um[1], um[2], um[3], um[4] = u[0], u[1]+cm, u[2], u[3]-cp, u[4]
	}
}

// solveLine runs the scalar pentadiagonal Thomas algorithm of all three
// factors of one line together: the convective factor (lhs) on rhs
// components 0-2 and the acoustic factors (lhsp, lhsm) on components 3
// and 4 of the line's 5-vectors at rhs[base+l*stride:]. The factors
// share no data, so stepping them a row at a time lets their three
// division chains overlap, while each keeps the operation order it has
// when solved alone. Row l of each factor holds the bands of cell l.
func solveLine(lhs, lhsp, lhsm [][5]float64, rhs []float64, base, stride int) {
	n := len(lhs)
	lhsp, lhsm = lhsp[:n], lhsm[:n]

	// Forward elimination; r0, r1, r2 are rows i, i+1, i+2 of the rhs.
	r0, r1 := grid.Vec5(rhs, base), grid.Vec5(rhs, base+stride)
	for i := 0; i+2 < n; i++ {
		r2 := grid.Vec5(rhs, base+(i+2)*stride)
		u0, u1, u2 := &lhs[i], &lhs[i+1], &lhs[i+2]
		p0, p1, p2 := &lhsp[i], &lhsp[i+1], &lhsp[i+2]
		m0, m1, m2 := &lhsm[i], &lhsm[i+1], &lhsm[i+2]

		fu, fp, fm := 1.0/u0[2], 1.0/p0[2], 1.0/m0[2]
		u0[3] *= fu
		u0[4] *= fu
		p0[3] *= fp
		p0[4] *= fp
		m0[3] *= fm
		m0[4] *= fm
		r0[0] *= fu
		r0[1] *= fu
		r0[2] *= fu
		r0[3] *= fp
		r0[4] *= fm

		bu, bp, bm := u1[1], p1[1], m1[1]
		u1[2] -= bu * u0[3]
		u1[3] -= bu * u0[4]
		p1[2] -= bp * p0[3]
		p1[3] -= bp * p0[4]
		m1[2] -= bm * m0[3]
		m1[3] -= bm * m0[4]
		r1[0] -= bu * r0[0]
		r1[1] -= bu * r0[1]
		r1[2] -= bu * r0[2]
		r1[3] -= bp * r0[3]
		r1[4] -= bm * r0[4]

		bu, bp, bm = u2[0], p2[0], m2[0]
		u2[1] -= bu * u0[3]
		u2[2] -= bu * u0[4]
		p2[1] -= bp * p0[3]
		p2[2] -= bp * p0[4]
		m2[1] -= bm * m0[3]
		m2[2] -= bm * m0[4]
		r2[0] -= bu * r0[0]
		r2[1] -= bu * r0[1]
		r2[2] -= bu * r0[2]
		r2[3] -= bp * r0[3]
		r2[4] -= bm * r0[4]

		r0, r1 = r1, r2
	}

	// The last two rows: r0 is row n-2, r1 row n-1.
	u0, u1 := &lhs[n-2], &lhs[n-1]
	p0, p1 := &lhsp[n-2], &lhsp[n-1]
	m0, m1 := &lhsm[n-2], &lhsm[n-1]
	fu, fp, fm := 1.0/u0[2], 1.0/p0[2], 1.0/m0[2]
	u0[3] *= fu
	u0[4] *= fu
	p0[3] *= fp
	p0[4] *= fp
	m0[3] *= fm
	m0[4] *= fm
	r0[0] *= fu
	r0[1] *= fu
	r0[2] *= fu
	r0[3] *= fp
	r0[4] *= fm
	bu, bp, bm := u1[1], p1[1], m1[1]
	u1[2] -= bu * u0[3]
	u1[3] -= bu * u0[4]
	p1[2] -= bp * p0[3]
	p1[3] -= bp * p0[4]
	m1[2] -= bm * m0[3]
	m1[3] -= bm * m0[4]
	r1[0] -= bu * r0[0]
	r1[1] -= bu * r0[1]
	r1[2] -= bu * r0[2]
	r1[3] -= bp * r0[3]
	r1[4] -= bm * r0[4]
	fu, fp, fm = 1.0/u1[2], 1.0/p1[2], 1.0/m1[2]
	r1[0] *= fu
	r1[1] *= fu
	r1[2] *= fu
	r1[3] *= fp
	r1[4] *= fm

	// Back substitution; r0, r1 are rows i+1, i+2.
	r0[0] -= u0[3] * r1[0]
	r0[1] -= u0[3] * r1[1]
	r0[2] -= u0[3] * r1[2]
	r0[3] -= p0[3] * r1[3]
	r0[4] -= m0[3] * r1[4]
	for i := n - 3; i >= 0; i-- {
		r := grid.Vec5(rhs, base+i*stride)
		u, p, m := &lhs[i], &lhsp[i], &lhsm[i]
		r[0] -= u[3]*r0[0] + u[4]*r1[0]
		r[1] -= u[3]*r0[1] + u[4]*r1[1]
		r[2] -= u[3]*r0[2] + u[4]*r1[2]
		r[3] -= p[3]*r0[3] + p[4]*r1[3]
		r[4] -= m[3]*r0[4] + m[4]*r1[4]
		r0, r1 = r, r0
	}
}

// solveDirectionLine factorizes and solves one grid line: convective
// factor on components 1-3, acoustic factors on components 4 and 5.
// The line's sound speeds live at speed[sbase+l*sstride] and its rhs
// 5-vectors at rhs[rbase+l*rstride:]; both sweeps are affine in l for
// every direction, so bases and strides replace accessor closures.
func (b *Benchmark) solveDirectionLine(ls *lineScratch, n int, p *dirParams,
	speed []float64, sbase, sstride int, rhs []float64, rbase, rstride int) {
	b.buildLHS(ls, n, p, speed, sbase, sstride)
	solveLine(ls.lhs, ls.lhsp, ls.lhsm, rhs, rbase, rstride)
}

// buildBodies constructs every parallel-region body once. Each is a
// func(id int) handed straight to Team.Run; chunk bounds come from the
// team's loop iterator (honoring the configured schedule), per-worker
// scratch from the pools and the team from the tm staging field, so the
// ADI loop creates no closures.
func (b *Benchmark) buildBodies() {
	n := b.n
	f := b.f
	b.pX = dirParams{dtt1: b.dttx1, dtt2: b.dttx2, c2dtt1: b.c2dttx1,
		dmax: b.dxmax, d2or3or4: b.c.Dx2, d5: b.c.Dx5, d1: b.c.Dx1}
	b.pY = dirParams{dtt1: b.dtty1, dtt2: b.dtty2, c2dtt1: b.c2dtty1,
		dmax: b.dymax, d2or3or4: b.c.Dy3, d5: b.c.Dy5, d1: b.c.Dy1}
	b.pZ = dirParams{dtt1: b.dttz1, dtt2: b.dttz2, c2dtt1: b.c2dttz1,
		dmax: b.dzmax, d2or3or4: b.c.Dz4, d5: b.c.Dz5, d1: b.c.Dz1}
	b.buildTransformBodies()

	// xi-direction factor sweep, k planes chunked
	b.xBody = func(id int) {
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 0; i < n; i++ {
						b.fillEigenRows(ls, i, f.SAt(i, j, k), &b.pX, f.Us)
					}
					b.solveDirectionLine(ls, n, &b.pX,
						f.Speed, f.SAt(0, j, k), 1,
						f.Rhs, f.FAt(0, 0, j, k), 5)
				}
			}
		}
	}

	// eta-direction factor sweep, k planes chunked
	b.yBody = func(id int) {
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for i := 1; i < n-1; i++ {
					for j := 0; j < n; j++ {
						b.fillEigenRows(ls, j, f.SAt(i, j, k), &b.pY, f.Vs)
					}
					b.solveDirectionLine(ls, n, &b.pY,
						f.Speed, f.SAt(i, 0, k), n,
						f.Rhs, f.FAt(0, i, 0, k), 5*n)
				}
			}
		}
	}

	// zeta-direction factor sweep, j rows chunked
	b.zBody = func(id int) {
		ls := b.scratch[id]
		for it := b.tm.Loop(id, 1, n-1); it.Next(); {
			for j := it.Lo; j < it.Hi; j++ {
				for i := 1; i < n-1; i++ {
					for k := 0; k < n; k++ {
						b.fillEigenRows(ls, k, f.SAt(i, j, k), &b.pZ, f.Ws)
					}
					b.solveDirectionLine(ls, n, &b.pZ,
						f.Speed, f.SAt(i, j, 0), n*n,
						f.Rhs, f.FAt(0, i, j, 0), 5*n*n)
				}
			}
		}
	}
}

// xSolve runs the xi-direction factor sweep followed by ninvr.
func (b *Benchmark) xSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.xBody)
	b.ninvr(tm)
}

// ySolve runs the eta-direction factor sweep followed by pinvr.
func (b *Benchmark) ySolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.yBody)
	b.pinvr(tm)
}

// zSolve runs the zeta-direction factor sweep followed by tzetar.
func (b *Benchmark) zSolve(tm *team.Team) {
	b.tm = tm
	tm.Run(b.zBody)
	b.tzetar(tm)
}
