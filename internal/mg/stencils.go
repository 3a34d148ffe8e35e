package mg

import (
	"npbgo/internal/grid"
	"npbgo/internal/simd"
)

//go:generate go run ../lanegen

// level describes one grid of the multigrid hierarchy: an (n+2)^3 box
// (n interior points per side plus periodic ghost shells).
type level struct {
	n1, n2, n3 int // box extents including ghosts
}

func (l level) len() int { return l.n1 * l.n2 * l.n3 }
func (l level) at(i1, i2, i3 int) int {
	return grid.Dim3{N1: l.n1, N2: l.n2, N3: l.n3}.At(i1, i2, i3)
}

// comm3 applies the periodic boundary condition to u by copying the
// opposite interior faces into the ghost shells (the serial analogue of
// the MPI ghost exchange, kept as a distinct phase as in mg.f).
func comm3(u []float64, l level) {
	n1, n2, n3 := l.n1, l.n2, l.n3
	for i3 := 1; i3 < n3-1; i3++ {
		for i2 := 1; i2 < n2-1; i2++ {
			row := l.at(0, i2, i3)
			u[row] = u[row+n1-2]
			u[row+n1-1] = u[row+1]
		}
	}
	for i3 := 1; i3 < n3-1; i3++ {
		lo := l.at(0, 0, i3)
		copy(u[lo:lo+n1], u[l.at(0, n2-2, i3):l.at(0, n2-2, i3)+n1])
		hi := l.at(0, n2-1, i3)
		copy(u[hi:hi+n1], u[l.at(0, 1, i3):l.at(0, 1, i3)+n1])
	}
	plane := n1 * n2
	copy(u[0:plane], u[(n3-2)*plane:(n3-1)*plane])
	copy(u[(n3-1)*plane:n3*plane], u[plane:2*plane])
}

// span returns the n values of f that start at point (i1, i2, i3) of
// level l.
func span(f []float64, l level, i1, i2, i3, n int) []float64 {
	return f[l.at(i1, i2, i3):][:n]
}

// residRange computes r = v - A u on the interior planes [k0, k1), as
// mg.f does: for each row, one pass forms the temporaries u1 (the sum
// of the four face-neighbour rows) and u2 (of the four edge-neighbour
// rows) into the scratch rows face and edge (sums4Row), and a second
// forms r from the centre row of u and u1, u2 at i1-1, i1 and i1+1
// (residPtRow), eight or four points per instruction; the a[1] term is
// dropped because a[1] = 0 in every NPB class (the Fortran omits it
// too). Without vector lanes (simd.Width 1) the row form would store
// and reload the sums, so residCarried runs instead. Every point's sums
// are mg.f's, in its order. r may be v. face and edge are at least n1
// long. One worker's share of resid.
func residRange(r, u, v []float64, l level, a *[4]float64, face, edge []float64, k0, k1 int) {
	if simd.Width == 1 {
		residCarried(r, u, v, l, a, k0, k1)
		return
	}
	a0, a2, a3 := a[0], a[2], a[3]
	n := l.n1 - 2
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			sums4Row(span(u, l, 0, i2-1, i3, n+2), span(u, l, 0, i2+1, i3, n+2), span(u, l, 0, i2, i3-1, n+2), span(u, l, 0, i2, i3+1, n+2),
				span(u, l, 0, i2-1, i3-1, n+2), span(u, l, 0, i2+1, i3-1, n+2), span(u, l, 0, i2-1, i3+1, n+2), span(u, l, 0, i2+1, i3+1, n+2),
				face, edge)
			residPtRow(span(r, l, 1, i2, i3, n), span(v, l, 1, i2, i3, n), span(u, l, 1, i2, i3, n),
				edge[1:], face, face[2:], edge, edge[2:], a0, a2, a3)
		}
	}
}

// residCarried is residRange without the scratch rows: u1 and u2 at
// i1-1, i1 and i1+1 are carried in registers along the row, formed by
// the same additions in the same order, and the rows of u, r and v are
// sub-slices of one length, so the loop has no scratch store, reload or
// bounds check (DESIGN.md §22). residRange runs it where there are no
// vector lanes.
func residCarried(r, u, v []float64, l level, a *[4]float64, k0, k1 int) {
	a0, a2, a3 := a[0], a[2], a[3]
	n := l.n1 - 2
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			rc, vc, uc := span(r, l, 1, i2, i3, n), span(v, l, 1, i2, i3, n), span(u, l, 1, i2, i3, n)
			m2, p2 := span(u, l, 0, i2-1, i3, n+2), span(u, l, 0, i2+1, i3, n+2)
			m3, p3 := span(u, l, 0, i2, i3-1, n+2), span(u, l, 0, i2, i3+1, n+2)
			mm, pm := span(u, l, 0, i2-1, i3-1, n+2), span(u, l, 0, i2+1, i3-1, n+2)
			mp, pp := span(u, l, 0, i2-1, i3+1, n+2), span(u, l, 0, i2+1, i3+1, n+2)
			u1m, u2m := m2[0]+p2[0]+m3[0]+p3[0], mm[0]+pm[0]+mp[0]+pp[0]
			u1c, u2c := m2[1]+p2[1]+m3[1]+p3[1], mm[1]+pm[1]+mp[1]+pp[1]
			m2, p2, m3, p3 = m2[2:n+2], p2[2:n+2], m3[2:n+2], p3[2:n+2]
			mm, pm, mp, pp = mm[2:n+2], pm[2:n+2], mp[2:n+2], pp[2:n+2]
			for i := range rc {
				u1p := m2[i] + p2[i] + m3[i] + p3[i]
				u2p := mm[i] + pm[i] + mp[i] + pp[i]
				rc[i] = vc[i] -
					a0*uc[i] -
					a2*(u2c+u1m+u1p) -
					a3*(u2m+u2p)
				u1m, u2m, u1c, u2c = u1c, u2c, u1p, u2p
			}
		}
	}
}

// psinvRange applies the smoother u += C r on the interior planes
// [k0, k1): mg.f's r1 (face-neighbour sums) and r2 (edge-neighbour
// sums) into the scratch rows face and edge (sums4Row), then the update
// from r1 at i1-1, i1 and i1+1, r2 at i1 and the centre row of r
// (psinvPtRow); c[3] = 0 in every class so its term is dropped, as in
// mg.f. Without vector lanes psinvCarried runs instead, as in
// residRange. One worker's share of psinv.
func psinvRange(r, u []float64, l level, c *[4]float64, face, edge []float64, k0, k1 int) {
	if simd.Width == 1 {
		psinvCarried(r, u, l, c, k0, k1)
		return
	}
	c0, c1, c2 := c[0], c[1], c[2]
	n := l.n1 - 2
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			sums4Row(span(r, l, 0, i2-1, i3, n+2), span(r, l, 0, i2+1, i3, n+2), span(r, l, 0, i2, i3-1, n+2), span(r, l, 0, i2, i3+1, n+2),
				span(r, l, 0, i2-1, i3-1, n+2), span(r, l, 0, i2+1, i3-1, n+2), span(r, l, 0, i2-1, i3+1, n+2), span(r, l, 0, i2+1, i3+1, n+2),
				face, edge)
			psinvPtRow(span(u, l, 1, i2, i3, n), span(r, l, 0, i2, i3, n), span(r, l, 1, i2, i3, n), span(r, l, 2, i2, i3, n),
				face, face[1:], face[2:], edge[1:], c0, c1, c2)
		}
	}
}

// psinvCarried is psinvRange without the scratch rows: r1 and r itself
// are carried along the row as residCarried carries u1 and u2, and r2,
// wanted at i1 alone, is formed where it is used. psinvRange runs it
// where there are no vector lanes.
func psinvCarried(r, u []float64, l level, c *[4]float64, k0, k1 int) {
	c0, c1, c2 := c[0], c[1], c[2]
	n := l.n1 - 2
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			uc, rc := span(u, l, 1, i2, i3, n), span(r, l, 0, i2, i3, n+2)
			m2, p2 := span(r, l, 0, i2-1, i3, n+2), span(r, l, 0, i2+1, i3, n+2)
			m3, p3 := span(r, l, 0, i2, i3-1, n+2), span(r, l, 0, i2, i3+1, n+2)
			mm, pm := span(r, l, 0, i2-1, i3-1, n+2), span(r, l, 0, i2+1, i3-1, n+2)
			mp, pp := span(r, l, 0, i2-1, i3+1, n+2), span(r, l, 0, i2+1, i3+1, n+2)
			r1m := m2[0] + p2[0] + m3[0] + p3[0]
			r1c := m2[1] + p2[1] + m3[1] + p3[1]
			rm, r0 := rc[0], rc[1]
			rc, m2, p2, m3, p3 = rc[2:n+2], m2[2:n+2], p2[2:n+2], m3[2:n+2], p3[2:n+2]
			mm, pm, mp, pp = mm[1:n+1], pm[1:n+1], mp[1:n+1], pp[1:n+1]
			for i := range uc {
				rp := rc[i]
				r1p := m2[i] + p2[i] + m3[i] + p3[i]
				r2 := mm[i] + pm[i] + mp[i] + pp[i]
				uc[i] += c0*r0 +
					c1*(rm+rp+r1c) +
					c2*(r2+r1m+r1p)
				rm, r0, r1m, r1c = r0, rp, r1c, r1p
			}
		}
	}
}

// sums4 forms one point of the face sum s1 = a1 + b1 + c1 + d1 and the
// edge sum s2 = a2 + b2 + c2 + d2, in mg.f's order.
//
//lanegen:rows
func sums4(a1, b1, c1, d1, a2, b2, c2, d2, s1, s2 *[1]float64) {
	s1[0] = a1[0] + b1[0] + c1[0] + d1[0]
	s2[0] = a2[0] + b2[0] + c2[0] + d2[0]
}

// residPt is mg.f's resid at one point: u2c is the edge sum at the
// point, u1m, u1p the face sums and u2m, u2p the edge sums either side.
//
//lanegen:rows
func residPt(r, v, u, u2c, u1m, u1p, u2m, u2p *[1]float64, a0, a2, a3 float64) {
	r[0] = v[0] - a0*u[0] - a2*(u2c[0]+u1m[0]+u1p[0]) - a3*(u2m[0]+u2p[0])
}

// psinvPt is mg.f's psinv at one point: rm, r0, rp are r either side
// of the point and at it, r1m, r1c, r1p the face sums there, r2 the
// edge sum at the point.
//
//lanegen:rows
func psinvPt(u, rm, r0, rp, r1m, r1c, r1p, r2 *[1]float64, c0, c1, c2 float64) {
	u[0] += c0*r0[0] + c1*(rm[0]+rp[0]+r1c[0]) + c2*(r2[0]+r1m[0]+r1p[0])
}

// rprj3Range restricts the fine residual r (level lk) onto the coarse
// planes [j3lo, j3hi) of s (level lj) with full weighting. mg.f's x1 and
// y1 (face- and edge-neighbour sums at the odd fine points either side
// of a coarse point) are carried from one coarse point to the next, as
// in residCarried. One worker's share of rprj3; the caller refreshes s's
// ghost shells after the join.
func rprj3Range(r []float64, lk level, s []float64, lj level, j3lo, j3hi int) {
	d1, d2, d3 := 1, 1, 1
	if lk.n1 == 3 {
		d1 = 2
	}
	if lk.n2 == 3 {
		d2 = 2
	}
	if lk.n3 == 3 {
		d3 = 2
	}
	// Coarse point j1 sits at fine i1 = 2*(j1+1)-d1-1 (the 0-based
	// translation of i1 = 2*j1-d1); the fine rows start at the i1-1 of
	// the first one and reach the i1+1 of the last.
	m := lj.n1 - 2
	o, nf := 2-d1, 2*m+1
	for j3 := j3lo; j3 < j3hi; j3++ {
		i3 := 2*(j3+1) - d3 - 1
		for j2 := 1; j2 < lj.n2-1; j2++ {
			i2 := 2*(j2+1) - d2 - 1
			sc, cc := span(s, lj, 1, j2, j3, m), span(r, lk, o, i2, i3, nf)
			m2, p2 := span(r, lk, o, i2-1, i3, nf), span(r, lk, o, i2+1, i3, nf)
			m3, p3 := span(r, lk, o, i2, i3-1, nf), span(r, lk, o, i2, i3+1, nf)
			mm, mp := span(r, lk, o, i2-1, i3-1, nf), span(r, lk, o, i2-1, i3+1, nf)
			pm, pp := span(r, lk, o, i2+1, i3-1, nf), span(r, lk, o, i2+1, i3+1, nf)
			x1m, y1m := m2[0]+p2[0]+m3[0]+p3[0], mm[0]+mp[0]+pm[0]+pp[0]
			for j := range sc {
				i := 2*j + 1
				y2 := mm[i] + mp[i] + pm[i] + pp[i]
				x2 := m2[i] + p2[i] + m3[i] + p3[i]
				x1p := m2[i+1] + p2[i+1] + m3[i+1] + p3[i+1]
				y1p := mm[i+1] + mp[i+1] + pm[i+1] + pp[i+1]
				sc[j] = 0.5*cc[i] +
					0.25*(cc[i-1]+cc[i+1]+x2) +
					0.125*(x1m+x1p+y2) +
					0.0625*(y1m+y1p)
				x1m, y1m = x1p, y1p
			}
		}
	}
}

// interpRange adds the trilinear prolongation of the coarse planes
// [i3lo, i3hi) of z (level lj) into the fine grid u (level lk). NPB
// grids always have at least 2 interior points per side at the coarsest
// level, so only the general branch of mg.f's interp is needed. mg.f's
// z1, z2 and z3 (sums over the coarse cell's rows) are carried from one
// coarse point to the next, and the four fine rows a coarse row feeds
// are updated in the one pass. One worker's share of interp.
func interpRange(z []float64, lj level, u []float64, lk level, i3lo, i3hi int) {
	mm1 := lj.n1
	for i3 := i3lo; i3 < i3hi; i3++ {
		for i2 := 0; i2 < lj.n2-1; i2++ {
			za, zb := span(z, lj, 0, i2, i3, mm1), span(z, lj, 0, i2+1, i3, mm1)
			zc, zd := span(z, lj, 0, i2, i3+1, mm1), span(z, lj, 0, i2+1, i3+1, mm1)
			ua, ub := span(u, lk, 0, 2*i2, 2*i3, 2*mm1-2), span(u, lk, 0, 2*i2+1, 2*i3, 2*mm1-2)
			uc, ud := span(u, lk, 0, 2*i2, 2*i3+1, 2*mm1-2), span(u, lk, 0, 2*i2+1, 2*i3+1, 2*mm1-2)
			z0 := za[0]
			z1 := zb[0] + z0
			z2 := zc[0] + z0
			z3 := zd[0] + zc[0] + z1
			za, zb, zc, zd = za[1:mm1], zb[1:mm1], zc[1:mm1], zd[1:mm1]
			for i := range za {
				z0p := za[i]
				z1p := zb[i] + z0p
				z2p := zc[i] + z0p
				z3p := zd[i] + zc[i] + z1p
				ua[2*i] += z0
				ua[2*i+1] += 0.5 * (z0p + z0)
				ub[2*i] += 0.5 * z1
				ub[2*i+1] += 0.25 * (z1 + z1p)
				uc[2*i] += 0.5 * z2
				uc[2*i+1] += 0.25 * (z2 + z2p)
				ud[2*i] += 0.25 * z3
				ud[2*i+1] += 0.125 * (z3 + z3p)
				z0, z1, z2, z3 = z0p, z1p, z2p, z3p
			}
		}
	}
}

// zero3 clears u.
func zero3(u []float64) {
	for i := range u {
		u[i] = 0
	}
}
