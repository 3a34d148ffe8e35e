package lu

// The row kernels of LU's operator (applyOperator). Each is the update
// of one grid point over *[1]float64 elements of component-major rows
// (one n^3 row per quantity, i fastest), with a point's neighbours
// along the direction passed as rows shifted by the stride: p for the
// point, p/m for p±stride. lanegen compiles each into an AVX kernel
// that runs four consecutive points per instruction, bit for bit the
// scalar body (rows.go, lanes_amd64.s), and the expressions are lu.f's
// rhs and erhs, term for term, so every sum rounds as it does there.

// opVel sets the velocities and the squared speed of a point, the same
// in every direction.
//
//lanegen:rows
func opVel(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 *[1]float64) {
	tmp := 1.0 / w0[0]
	u1 := tmp * w1[0]
	u2 := tmp * w2[0]
	u3 := tmp * w3[0]
	v1[0] = u1
	v2[0] = u2
	v3[0] = u3
	v4[0] = tmp * w4[0]
	sq[0] = u1*u1 + u2*u2 + u3*u3
}

// opFlux sets the convective fluxes of a point's momentum and energy in
// one direction: wa is the momentum along it, which carries the
// pressure, and wb, wc the two across (wa, wb and wc are w1, w2 and w3
// in some order); fa, fb, fc are their fluxes.
//
//lanegen:rows
func opFlux(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc *[1]float64, c1, c2 float64) {
	u := wa[0] / w0[0]
	q := 0.5 * (w1[0]*w1[0] + w2[0]*w2[0] + w3[0]*w3[0]) / w0[0]
	fa[0] = wa[0]*u + c2*(w4[0]-q)
	fb[0] = wb[0] * u
	fc[0] = wc[0] * u
	f4[0] = (c1*w4[0] - c2*q) * u
}

// opVisc4 sets the viscous energy flux between a point and its lower
// neighbour (the m-suffixed rows): va is the velocity along the
// direction.
//
//lanegen:rows
func opVisc4(h, sq, sqm, va, vam, v4, v4m *[1]float64, e1, e2, e3 float64) {
	h[0] = e1*(sq[0]-sqm[0]) + e2*(va[0]*va[0]-vam[0]*vam[0]) + e3*(v4[0]-v4m[0])
}

// opRho applies one direction's continuity terms to o: the central
// difference of the momentum along it (fp, fm), the second difference
// of rho, then the dissipation term dis.
//
//lanegen:rows
func opRho(o, dis, fp, fm, wm, w, wp *[1]float64, t2, d float64) {
	o[0] -= t2 * (fp[0] - fm[0])
	o[0] += d * (wm[0] - 2.0*w[0] + wp[0])
	o[0] -= dis[0]
}

// opMom applies one direction's terms of a momentum component w with
// velocity v: its convective flux difference, the difference of the
// viscous fluxes visc·(v − vm) on either side, its second difference,
// then the dissipation term.
//
//lanegen:rows
func opMom(o, dis, fp, fm, vp, v, vm, wm, w, wp *[1]float64, t2, visc, t3c34, d float64) {
	o[0] -= t2 * (fp[0] - fm[0])
	o[0] += t3c34*(visc*(vp[0]-v[0])-visc*(v[0]-vm[0])) + d*(wm[0]-2.0*w[0]+wp[0])
	o[0] -= dis[0]
}

// opEnergy is opMom for the energy, whose viscous flux is the row h of
// opVisc4 at the point and its upper neighbour (hp).
//
//lanegen:rows
func opEnergy(o, dis, fp, fm, hp, h, wm, w, wp *[1]float64, t2, t3c34, d float64) {
	o[0] -= t2 * (fp[0] - fm[0])
	o[0] += t3c34*(hp[0]-h[0]) + d*(wm[0]-2.0*w[0]+wp[0])
	o[0] -= dis[0]
}
