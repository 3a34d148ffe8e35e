// Code generated by lanegen from kernels.go; DO NOT EDIT.

package sp

import "npbgo/internal/simd"

// eigen8 runs eigen on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func eigen8(live int, s *[8][8]float64, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		eigenAVX512(s, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1)
	case simd.Width >= 4:
		eigenAVX(&s[0][0], c3c4, con43, c1c5, d2or3or4, d5, dmax, d1)
		if live > 4 {
			eigenAVX(&s[0][4], c3c4, con43, c1c5, d2or3or4, d5, dmax, d1)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			ru1 := c3c4 * s[3][q]
			r := d2or3or4 + con43*ru1
			v := d5 + c1c5*ru1
			if v > r {
				r = v
			}
			v = dmax + ru1
			if v > r {
				r = v
			}
			if d1 > r {
				r = d1
			}
			s[1][q] = r
		}
	}
}

// lhsRow8 runs lhsRow on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func lhsRow8(live int, u, p, m *[5][8]float64, sm, s, sp *[8][8]float64, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		lhsRowAVX512(u, p, m, sm, s, sp, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4)
	case simd.Width >= 4:
		lhsRowAVX(&u[0][0], &p[0][0], &m[0][0], &sm[0][0], &s[0][0], &sp[0][0], dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4)
		if live > 4 {
			lhsRowAVX(&u[0][4], &p[0][4], &m[0][4], &sm[0][4], &s[0][4], &sp[0][4], dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u0 := 0.0 - t0
			u1 := -dtt2*sm[0][q] - dtt1*sm[1][q] - t1
			u2 := 1.0 + c2dtt1*s[1][q] - t2
			u3 := dtt2*sp[0][q] - dtt1*sp[1][q] - t3
			u4 := 0.0 - t4
			cm := dtt2 * sm[2][q]
			cp := dtt2 * sp[2][q]
			u[0][q] = u0
			u[1][q] = u1
			u[2][q] = u2
			u[3][q] = u3
			u[4][q] = u4
			p[0][q] = u0
			p[1][q] = u1 - cm
			p[2][q] = u2
			p[3][q] = u3 + cp
			p[4][q] = u4
			m[0][q] = u0
			m[1][q] = u1 + cm
			m[2][q] = u2
			m[3][q] = u3 - cp
			m[4][q] = u4
		}
	}
}

// forwardStep8 runs forwardStep on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func forwardStep8(live int, u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2 *[5][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		forwardStepAVX512(u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2)
	case simd.Width >= 4:
		forwardStepAVX(&u0[0][0], &u1[0][0], &u2[0][0], &p0[0][0], &p1[0][0], &p2[0][0], &m0[0][0], &m1[0][0], &m2[0][0], &r0[0][0], &r1[0][0], &r2[0][0])
		if live > 4 {
			forwardStepAVX(&u0[0][4], &u1[0][4], &u2[0][4], &p0[0][4], &p1[0][4], &p2[0][4], &m0[0][4], &m1[0][4], &m2[0][4], &r0[0][4], &r1[0][4], &r2[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			fu, fp, fm := 1.0/u0[2][q], 1.0/p0[2][q], 1.0/m0[2][q]
			u0[3][q] *= fu
			u0[4][q] *= fu
			p0[3][q] *= fp
			p0[4][q] *= fp
			m0[3][q] *= fm
			m0[4][q] *= fm
			r0[0][q] *= fu
			r0[1][q] *= fu
			r0[2][q] *= fu
			r0[3][q] *= fp
			r0[4][q] *= fm
			bu, bp, bm := u1[1][q], p1[1][q], m1[1][q]
			u1[2][q] -= bu * u0[3][q]
			u1[3][q] -= bu * u0[4][q]
			p1[2][q] -= bp * p0[3][q]
			p1[3][q] -= bp * p0[4][q]
			m1[2][q] -= bm * m0[3][q]
			m1[3][q] -= bm * m0[4][q]
			r1[0][q] -= bu * r0[0][q]
			r1[1][q] -= bu * r0[1][q]
			r1[2][q] -= bu * r0[2][q]
			r1[3][q] -= bp * r0[3][q]
			r1[4][q] -= bm * r0[4][q]
			bu, bp, bm = u2[0][q], p2[0][q], m2[0][q]
			u2[1][q] -= bu * u0[3][q]
			u2[2][q] -= bu * u0[4][q]
			p2[1][q] -= bp * p0[3][q]
			p2[2][q] -= bp * p0[4][q]
			m2[1][q] -= bm * m0[3][q]
			m2[2][q] -= bm * m0[4][q]
			r2[0][q] -= bu * r0[0][q]
			r2[1][q] -= bu * r0[1][q]
			r2[2][q] -= bu * r0[2][q]
			r2[3][q] -= bp * r0[3][q]
			r2[4][q] -= bm * r0[4][q]
		}
	}
}

// lastRows8 runs lastRows on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func lastRows8(live int, u0, u1, p0, p1, m0, m1, r0, r1 *[5][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		lastRowsAVX512(u0, u1, p0, p1, m0, m1, r0, r1)
	case simd.Width >= 4:
		lastRowsAVX(&u0[0][0], &u1[0][0], &p0[0][0], &p1[0][0], &m0[0][0], &m1[0][0], &r0[0][0], &r1[0][0])
		if live > 4 {
			lastRowsAVX(&u0[0][4], &u1[0][4], &p0[0][4], &p1[0][4], &m0[0][4], &m1[0][4], &r0[0][4], &r1[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			fu, fp, fm := 1.0/u0[2][q], 1.0/p0[2][q], 1.0/m0[2][q]
			u0[3][q] *= fu
			u0[4][q] *= fu
			p0[3][q] *= fp
			p0[4][q] *= fp
			m0[3][q] *= fm
			m0[4][q] *= fm
			r0[0][q] *= fu
			r0[1][q] *= fu
			r0[2][q] *= fu
			r0[3][q] *= fp
			r0[4][q] *= fm
			bu, bp, bm := u1[1][q], p1[1][q], m1[1][q]
			u1[2][q] -= bu * u0[3][q]
			u1[3][q] -= bu * u0[4][q]
			p1[2][q] -= bp * p0[3][q]
			p1[3][q] -= bp * p0[4][q]
			m1[2][q] -= bm * m0[3][q]
			m1[3][q] -= bm * m0[4][q]
			r1[0][q] -= bu * r0[0][q]
			r1[1][q] -= bu * r0[1][q]
			r1[2][q] -= bu * r0[2][q]
			r1[3][q] -= bp * r0[3][q]
			r1[4][q] -= bm * r0[4][q]
			fu, fp, fm = 1.0/u1[2][q], 1.0/p1[2][q], 1.0/m1[2][q]
			r1[0][q] *= fu
			r1[1][q] *= fu
			r1[2][q] *= fu
			r1[3][q] *= fp
			r1[4][q] *= fm
			r0[0][q] -= u0[3][q] * r1[0][q]
			r0[1][q] -= u0[3][q] * r1[1][q]
			r0[2][q] -= u0[3][q] * r1[2][q]
			r0[3][q] -= p0[3][q] * r1[3][q]
			r0[4][q] -= m0[3][q] * r1[4][q]
		}
	}
}

// backStep8 runs backStep on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func backStep8(live int, u, p, m, r, r0, r1 *[5][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		backStepAVX512(u, p, m, r, r0, r1)
	case simd.Width >= 4:
		backStepAVX(&u[0][0], &p[0][0], &m[0][0], &r[0][0], &r0[0][0], &r1[0][0])
		if live > 4 {
			backStepAVX(&u[0][4], &p[0][4], &m[0][4], &r[0][4], &r0[0][4], &r1[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			r[0][q] -= u[3][q]*r0[0][q] + u[4][q]*r1[0][q]
			r[1][q] -= u[3][q]*r0[1][q] + u[4][q]*r1[1][q]
			r[2][q] -= u[3][q]*r0[2][q] + u[4][q]*r1[2][q]
			r[3][q] -= p[3][q]*r0[3][q] + p[4][q]*r1[3][q]
			r[4][q] -= m[3][q]*r0[4][q] + m[4][q]*r1[4][q]
		}
	}
}

// txinvr8 runs txinvr on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func txinvr8(live int, r *[5][8]float64, s *[8][8]float64, bt, c2 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		txinvrAVX512(r, s, bt, c2)
	case simd.Width >= 4:
		txinvrAVX(&r[0][0], &s[0][0], bt, c2)
		if live > 4 {
			txinvrAVX(&r[0][4], &s[0][4], bt, c2)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			ru1, uu, ac := s[3][q], s[0][q], s[2][q]
			ac2inv := 1.0 / (ac * ac)
			r1 := r[0][q]
			t1 := c2 * ac2inv * (s[4][q]*r1 - uu*r[1][q] - s[5][q]*r[2][q] - s[6][q]*r[3][q] + r[4][q])
			t2 := bt * ru1 * (uu*r1 - r[1][q])
			t3 := bt * ru1 * ac * t1
			r[0][q] = r1 - t1
			r[1][q] = -ru1 * (s[6][q]*r1 - r[3][q])
			r[2][q] = ru1 * (s[5][q]*r1 - r[2][q])
			r[3][q] = -t2 + t3
			r[4][q] = t2 + t3
		}
	}
}

// ninvr8 runs ninvr on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func ninvr8(live int, r *[5][8]float64, bt float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		ninvrAVX512(r, bt)
	case simd.Width >= 4:
		ninvrAVX(&r[0][0], bt)
		if live > 4 {
			ninvrAVX(&r[0][4], bt)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			r1 := r[0][q]
			t1 := bt * r[2][q]
			t2 := 0.5 * (r[3][q] + r[4][q])
			r[0][q] = -r[1][q]
			r[1][q] = r1
			r[2][q] = bt * (r[3][q] - r[4][q])
			r[3][q] = -t1 + t2
			r[4][q] = t1 + t2
		}
	}
}

// pinvr8 runs pinvr on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func pinvr8(live int, r *[5][8]float64, bt float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		pinvrAVX512(r, bt)
	case simd.Width >= 4:
		pinvrAVX(&r[0][0], bt)
		if live > 4 {
			pinvrAVX(&r[0][4], bt)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			r2 := r[1][q]
			t1 := bt * r[0][q]
			t2 := 0.5 * (r[3][q] + r[4][q])
			r[0][q] = bt * (r[3][q] - r[4][q])
			r[1][q] = -r[2][q]
			r[2][q] = r2
			r[3][q] = -t1 + t2
			r[4][q] = t1 + t2
		}
	}
}

// tzetar8 runs tzetar on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func tzetar8(live int, r *[5][8]float64, s *[8][8]float64, bt, c2iv float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		tzetarAVX512(r, s, bt, c2iv)
	case simd.Width >= 4:
		tzetarAVX(&r[0][0], &s[0][0], bt, c2iv)
		if live > 4 {
			tzetarAVX(&r[0][4], &s[0][4], bt, c2iv)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			xvel, yvel, zvel := s[5][q], s[6][q], s[0][q]
			ac, uzik1 := s[2][q], s[7][q]
			r1, r2 := r[0][q], r[1][q]
			btuz := bt * uzik1
			t1 := btuz / ac * (r[3][q] + r[4][q])
			t2 := r[2][q] + t1
			t3 := btuz * (r[3][q] - r[4][q])
			r[0][q] = t2
			r[1][q] = -uzik1*r2 + xvel*t2
			r[2][q] = uzik1*r1 + yvel*t2
			r[3][q] = zvel*t2 + t3
			r[4][q] = uzik1*(-xvel*r2+yvel*r1) + s[4][q]*t2 + c2iv*(ac*ac)*t1 + zvel*t3
		}
	}
}
