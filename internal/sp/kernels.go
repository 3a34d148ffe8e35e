package sp

// The per-cell steps of SP's line solves, as scalar Go over fixed-size
// arrays. lanegen compiles each into AVX-512 and AVX kernels that run
// eight lines at once, bit for bit the scalar body (lanes.go,
// lanes_amd64.s). A
// cell of a line holds five arrays:
//
//   - r: the right-hand side 5-vector;
//   - u, p, m: the cell's row of the convective factor and of the two
//     acoustic factors u+c and u-c, bands 0..4 coupling cells i-2..i+2
//     (the Fortran lhs(1..5,i), lhsp and lhsm);
//   - s: the point's scalars: 0 the velocity along the line (cv), 1 the
//     spectral bound (rho, set by eigen), 2 the speed of sound, 3 1/rho,
//     4 q/rho, 5 and 6 the two velocities across the line (x: v and w;
//     z: u and v) and 7 the density (z only). The transforms read the
//     entries of their own direction only.
//
// The statements are those of the line-at-a-time solver and the
// pointwise transforms kept in sp_test.go as the oracle, in the same
// order, so every value rounds as it does there.

// eigen sets a cell's spectral bound rho from its 1/rho.
//
//lanegen:lanes
func eigen(s *[8]float64, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1 float64) {
	ru1 := c3c4 * s[3]
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
	s[1] = r
}

// lhsRow sets an interior cell's rows of the three factors from the
// scalars of the cell (s) and its neighbours (sm, sp). t0..t4 are what
// the fourth-order dissipation subtracts from each band of the row
// (Benchmark.diss): x - (+0) is x for every x, zeros of both signs
// included, and x - (-c) is x + c, so one subtraction per band is the
// scalar solver's one add or subtract, or none.
//
//lanegen:lanes
func lhsRow(u, p, m *[5]float64, sm, s, sp *[8]float64, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4 float64) {
	u0 := 0.0 - t0
	u1 := -dtt2*sm[0] - dtt1*sm[1] - t1
	u2 := 1.0 + c2dtt1*s[1] - t2
	u3 := dtt2*sp[0] - dtt1*sp[1] - t3
	u4 := 0.0 - t4
	cm := dtt2 * sm[2]
	cp := dtt2 * sp[2]
	u[0] = u0
	u[1] = u1
	u[2] = u2
	u[3] = u3
	u[4] = u4
	p[0] = u0
	p[1] = u1 - cm
	p[2] = u2
	p[3] = u3 + cp
	p[4] = u4
	m[0] = u0
	m[1] = u1 + cm
	m[2] = u2
	m[3] = u3 - cp
	m[4] = u4
}

// forwardStep is one row of the forward elimination of all three
// factors: row i (u0, p0, m0, r0) is scaled by its pivots and
// eliminated from rows i+1 and i+2. The factors share no data, so
// stepping them together lets their three division chains overlap,
// while each keeps the operation order it has when solved alone.
//
//lanegen:lanes
func forwardStep(u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2 *[5]float64) {
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
}

// lastRows eliminates row n-2 (u0, p0, m0, r0) from row n-1, solves
// row n-1 and back-substitutes it into row n-2.
//
//lanegen:lanes
func lastRows(u0, u1, p0, p1, m0, m1, r0, r1 *[5]float64) {
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

	r0[0] -= u0[3] * r1[0]
	r0[1] -= u0[3] * r1[1]
	r0[2] -= u0[3] * r1[2]
	r0[3] -= p0[3] * r1[3]
	r0[4] -= m0[3] * r1[4]
}

// backStep back-substitutes rows i+1 (r0) and i+2 (r1) into row i.
//
//lanegen:lanes
func backStep(u, p, m, r, r0, r1 *[5]float64) {
	r[0] -= u[3]*r0[0] + u[4]*r1[0]
	r[1] -= u[3]*r0[1] + u[4]*r1[1]
	r[2] -= u[3]*r0[2] + u[4]*r1[2]
	r[3] -= p[3]*r0[3] + p[4]*r1[3]
	r[4] -= m[3]*r0[4] + m[4]*r1[4]
}

// txinvr premultiplies a cell's rhs by the inverse of the x-direction
// eigenvector matrix, before the xi solve.
//
//lanegen:lanes
func txinvr(r *[5]float64, s *[8]float64, bt, c2 float64) {
	ru1, uu, ac := s[3], s[0], s[2]
	ac2inv := 1.0 / (ac * ac)
	r1 := r[0]
	t1 := c2 * ac2inv * (s[4]*r1 - uu*r[1] - s[5]*r[2] - s[6]*r[3] + r[4])
	t2 := bt * ru1 * (uu*r1 - r[1])
	t3 := bt * ru1 * ac * t1
	r[0] = r1 - t1
	r[1] = -ru1 * (s[6]*r1 - r[3])
	r[2] = ru1 * (s[5]*r1 - r[2])
	r[3] = -t2 + t3
	r[4] = t2 + t3
}

// ninvr applies the x-direction eigenvector matrix after the xi solve.
//
//lanegen:lanes
func ninvr(r *[5]float64, bt float64) {
	r1 := r[0]
	t1 := bt * r[2]
	t2 := 0.5 * (r[3] + r[4])
	r[0] = -r[1]
	r[1] = r1
	r[2] = bt * (r[3] - r[4])
	r[3] = -t1 + t2
	r[4] = t1 + t2
}

// pinvr applies the y-direction eigenvector matrix after the eta solve.
//
//lanegen:lanes
func pinvr(r *[5]float64, bt float64) {
	r2 := r[1]
	t1 := bt * r[0]
	t2 := 0.5 * (r[3] + r[4])
	r[0] = bt * (r[3] - r[4])
	r[1] = -r[2]
	r[2] = r2
	r[3] = -t1 + t2
	r[4] = t1 + t2
}

// tzetar applies the z-direction eigenvector matrix after the zeta
// solve, returning to conserved-variable space.
//
//lanegen:lanes
func tzetar(r *[5]float64, s *[8]float64, bt, c2iv float64) {
	xvel, yvel, zvel := s[5], s[6], s[0]
	ac, uzik1 := s[2], s[7]
	r1, r2 := r[0], r[1]
	btuz := bt * uzik1
	t1 := btuz / ac * (r[3] + r[4])
	t2 := r[2] + t1
	t3 := btuz * (r[3] - r[4])
	r[0] = t2
	r[1] = -uzik1*r2 + xvel*t2
	r[2] = uzik1*r1 + yvel*t2
	r[3] = zvel*t2 + t3
	r[4] = uzik1*(-xvel*r2+yvel*r1) + s[4]*t2 + c2iv*(ac*ac)*t1 + zvel*t3
}
