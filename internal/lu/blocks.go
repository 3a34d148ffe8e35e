package lu

import "npbgo/internal/nscore"

// The 5x5 blocks of the SSOR sweeps, written out entry by entry as
// lu.f's jacld/jacu do. With F the flux Jacobian and N the viscous
// Jacobian of a direction (nscore.FluxViscJacobians, the oracle the
// tests hold these formulae to),
//
//	coupling(dir, sign, p) = sign*dt*t2*F(p) - dt*t1*N(p) - dt*t1*diag(d1..d5)
//	diagonal(p)            = I + 2dt*(tx1*Nx + ty1*Ny + tz1*Nz)(p)
//	                           + 2dt*diag(tx1*dxm + ty1*dym + tz1*dzm)
//
// with sign = -1 for the lower sweep and +1 for the upper one, each
// coupling block evaluated at the neighbour it couples to. Blocks are
// column-major [25]float64 (element (m,n) at m+5*n). Every builder
// writes only the structural non-zeros of its block, so the zeros of
// each scratch block, set once at allocation, persist. lanegen compiles
// each builder and factor5 into a kernel that runs eight consecutive
// points of a row at once, bit for bit the scalar body (lanes.go,
// lanes_amd64.s).

// dirConsts holds the constants of one direction's coupling block.
type dirConsts struct {
	c1, c2 float64    // dt*t?1, dt*t?2
	d      [5]float64 // dt*t?1 * (d?1..d?5)
}

// blockConsts holds everything the block builders need besides the
// state, derived once from the problem constants by newBlockConsts.
type blockConsts struct {
	c1, c2, c1345 float64 // C1, C2, C1*C3*C4*C5
	c34, r43      float64 // viscous momentum coefficient C3*C4; 4/3 of it along the sweep direction
	m34, m43      float64 // the same two minus c1345 (energy row)
	x, y, z       dirConsts

	// Diagonal block: summing N over the three directions leaves one
	// coefficient per momentum component, kd[r] = 2dt*C3c4*(tx1+ty1+tz1
	// + t?1/3) with t?1 the direction of component r, the energy
	// coefficient te = 2dt*(tx1+ty1+tz1)*c1345, and the constant
	// diagonal e.
	kd [4]float64 // index 1..3
	km [4]float64 // kd[r] - te
	te float64
	e  [5]float64
}

func newBlockConsts(c *nscore.Consts) blockConsts {
	dir := func(t1, t2 float64, d [5]float64) dirConsts {
		dc := dirConsts{c1: c.Dt * t1, c2: c.Dt * t2}
		for m := range d {
			dc.d[m] = dc.c1 * d[m]
		}
		return dc
	}
	k := blockConsts{
		c1: c.C1, c2: c.C2, c1345: c.C1345,
		c34: c.C3c4, r43: c.Con43 * c.C3c4,
		x: dir(c.Tx1, c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}),
		y: dir(c.Ty1, c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}),
		z: dir(c.Tz1, c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}),
	}
	k.m34 = k.c34 - k.c1345
	k.m43 = k.r43 - k.c1345
	tsum := k.x.c1 + k.y.c1 + k.z.c1
	k.te = 2.0 * tsum * k.c1345
	for i, dc := range [3]*dirConsts{&k.x, &k.y, &k.z} {
		k.kd[i+1] = 2.0 * (k.c34*tsum + (k.r43-k.c34)*dc.c1)
		k.km[i+1] = k.kd[i+1] - k.te
	}
	for m := range k.e {
		k.e[m] = 1.0 + 2.0*(k.x.d[m]+k.y.d[m]+k.z.d[m])
	}
	return k
}

// couplingX fills dst with the xi-direction coupling block at state u:
// f is sign*dt*tx2, n is dt*tx1 and d0..d4 are dt*tx1*(dx1..dx5).
//
//lanegen:lanes
func couplingX(dst *[25]float64, u *[5]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	u0, u1, u2, u3, u4 := u[0], u[1], u[2], u[3], u[4]
	t1 := 1.0 / u0
	t2 := t1 * t1
	t3 := t1 * t2
	sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
	qs := sq * t1
	dst[0] = -d0
	dst[1] = f*(-(u1*u1)*t2+c2*qs) + n*(r43*t2*u1)
	dst[2] = f*(-(u2*u1)*t2) + n*(c34*t2*u2)
	dst[3] = f*(-(u3*u1)*t2) + n*(c34*t2*u3)
	dst[4] = f*((c2*2.0*sq-c1*u4)*u1*t2) + n*(m43*t3*u1*u1+m34*t3*u2*u2+m34*t3*u3*u3+c1345*t2*u4)
	dst[5] = f
	dst[6] = f*((2.0-c2)*u1*t1) - n*(r43*t1) - d1
	dst[7] = f * (u2 * t1)
	dst[8] = f * (u3 * t1)
	dst[9] = f*(c1*u4*t1-c2*(qs+u1*u1*t2)) - n*(m43*t2*u1)
	dst[11] = f * (-c2 * u2 * t1)
	dst[12] = f*(u1*t1) - n*(c34*t1) - d2
	dst[14] = f*(-c2*(u2*u1)*t2) - n*(m34*t2*u2)
	dst[16] = f * (-c2 * u3 * t1)
	dst[18] = f*(u1*t1) - n*(c34*t1) - d3
	dst[19] = f*(-c2*(u3*u1)*t2) - n*(m34*t2*u3)
	dst[21] = f * c2
	dst[24] = f*(c1*u1*t1) - n*(c1345*t1) - d4
}

// couplingY fills dst with the eta-direction coupling block at state u:
// f is sign*dt*ty2, n is dt*ty1 and d0..d4 are dt*ty1*(dy1..dy5).
//
//lanegen:lanes
func couplingY(dst *[25]float64, u *[5]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	u0, u1, u2, u3, u4 := u[0], u[1], u[2], u[3], u[4]
	t1 := 1.0 / u0
	t2 := t1 * t1
	t3 := t1 * t2
	sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
	qs := sq * t1
	dst[0] = -d0
	dst[1] = f*(-(u1*u2)*t2) + n*(c34*t2*u1)
	dst[2] = f*(-(u2*u2)*t2+c2*qs) + n*(r43*t2*u2)
	dst[3] = f*(-(u3*u2)*t2) + n*(c34*t2*u3)
	dst[4] = f*((c2*2.0*sq-c1*u4)*u2*t2) + n*(m34*t3*u1*u1+m43*t3*u2*u2+m34*t3*u3*u3+c1345*t2*u4)
	dst[6] = f*(u2*t1) - n*(c34*t1) - d1
	dst[7] = f * (-c2 * u1 * t1)
	dst[9] = f*(-c2*(u1*u2)*t2) - n*(m34*t2*u1)
	dst[10] = f
	dst[11] = f * (u1 * t1)
	dst[12] = f*((2.0-c2)*u2*t1) - n*(r43*t1) - d2
	dst[13] = f * (u3 * t1)
	dst[14] = f*(c1*u4*t1-c2*(qs+u2*u2*t2)) - n*(m43*t2*u2)
	dst[17] = f * (-c2 * u3 * t1)
	dst[18] = f*(u2*t1) - n*(c34*t1) - d3
	dst[19] = f*(-c2*(u3*u2)*t2) - n*(m34*t2*u3)
	dst[22] = f * c2
	dst[24] = f*(c1*u2*t1) - n*(c1345*t1) - d4
}

// couplingZ fills dst with the zeta-direction coupling block at state u:
// f is sign*dt*tz2, n is dt*tz1 and d0..d4 are dt*tz1*(dz1..dz5).
//
//lanegen:lanes
func couplingZ(dst *[25]float64, u *[5]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	u0, u1, u2, u3, u4 := u[0], u[1], u[2], u[3], u[4]
	t1 := 1.0 / u0
	t2 := t1 * t1
	t3 := t1 * t2
	sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
	qs := sq * t1
	dst[0] = -d0
	dst[1] = f*(-(u1*u3)*t2) + n*(c34*t2*u1)
	dst[2] = f*(-(u2*u3)*t2) + n*(c34*t2*u2)
	dst[3] = f*(-(u3*u3)*t2+c2*qs) + n*(r43*t2*u3)
	dst[4] = f*((c2*2.0*sq-c1*u4)*u3*t2) + n*(m34*t3*u1*u1+m34*t3*u2*u2+m43*t3*u3*u3+c1345*t2*u4)
	dst[6] = f*(u3*t1) - n*(c34*t1) - d1
	dst[8] = f * (-c2 * u1 * t1)
	dst[9] = f*(-c2*(u1*u3)*t2) - n*(m34*t2*u1)
	dst[12] = f*(u3*t1) - n*(c34*t1) - d2
	dst[13] = f * (-c2 * u2 * t1)
	dst[14] = f*(-c2*(u2*u3)*t2) - n*(m34*t2*u2)
	dst[15] = f
	dst[16] = f * (u1 * t1)
	dst[17] = f * (u2 * t1)
	dst[18] = f*((2.0-c2)*u3*t1) - n*(r43*t1) - d3
	dst[19] = f*(c1*u4*t1-c2*(qs+u3*u3*t2)) - n*(m43*t2*u3)
	dst[23] = f * c2
	dst[24] = f*(c1*u3*t1) - n*(c1345*t1) - d4
}

// diagonal fills dst with the block-diagonal matrix at state u, from
// blockConsts' kd, km, te and e. No flux Jacobian enters it, and the
// block is lower triangular.
//
//lanegen:lanes
func diagonal(dst *[25]float64, u *[5]float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := 1.0 / u[0]
	t2 := t1 * t1
	t3 := t1 * t2
	dst[0] = e0
	dst[1] = -kd1 * t2 * u1
	dst[2] = -kd2 * t2 * u2
	dst[3] = -kd3 * t2 * u3
	dst[4] = -(km1*u1*u1+km2*u2*u2+km3*u3*u3)*t3 - te*t2*u4
	dst[6] = kd1*t1 + e1
	dst[9] = km1 * t2 * u1
	dst[12] = kd2*t1 + e2
	dst[14] = km2 * t2 * u2
	dst[18] = kd3*t1 + e3
	dst[19] = km3 * t2 * u3
	dst[24] = te*t1 + e4
}

// factor5 is the block half of solve5 (lu_test.go), the unpivoted
// Gaussian elimination of a 5x5 block in place: pivots p = 0..4, each
// scaling its row and then eliminating rows q > p, with each pivot's
// reciprocal left on the diagonal. apply5 then runs solve5's operations
// on the right-hand side: each reads only block entries whose last
// value is set before solve5 would read them, so the two halves are
// bit for bit solve5.
//
//lanegen:lanes
func factor5(a *[25]float64) {
	piv := 1.0 / a[0]
	a[0] = piv
	a[5] *= piv
	a[10] *= piv
	a[15] *= piv
	a[20] *= piv
	coeff := a[1]
	a[6] -= coeff * a[5]
	a[11] -= coeff * a[10]
	a[16] -= coeff * a[15]
	a[21] -= coeff * a[20]
	coeff = a[2]
	a[7] -= coeff * a[5]
	a[12] -= coeff * a[10]
	a[17] -= coeff * a[15]
	a[22] -= coeff * a[20]
	coeff = a[3]
	a[8] -= coeff * a[5]
	a[13] -= coeff * a[10]
	a[18] -= coeff * a[15]
	a[23] -= coeff * a[20]
	coeff = a[4]
	a[9] -= coeff * a[5]
	a[14] -= coeff * a[10]
	a[19] -= coeff * a[15]
	a[24] -= coeff * a[20]
	piv = 1.0 / a[6]
	a[6] = piv
	a[11] *= piv
	a[16] *= piv
	a[21] *= piv
	coeff = a[7]
	a[12] -= coeff * a[11]
	a[17] -= coeff * a[16]
	a[22] -= coeff * a[21]
	coeff = a[8]
	a[13] -= coeff * a[11]
	a[18] -= coeff * a[16]
	a[23] -= coeff * a[21]
	coeff = a[9]
	a[14] -= coeff * a[11]
	a[19] -= coeff * a[16]
	a[24] -= coeff * a[21]
	piv = 1.0 / a[12]
	a[12] = piv
	a[17] *= piv
	a[22] *= piv
	coeff = a[13]
	a[18] -= coeff * a[17]
	a[23] -= coeff * a[22]
	coeff = a[14]
	a[19] -= coeff * a[17]
	a[24] -= coeff * a[22]
	piv = 1.0 / a[18]
	a[18] = piv
	a[23] *= piv
	coeff = a[19]
	a[24] -= coeff * a[23]
	a[24] = 1.0 / a[24]
}

// apply5 solves lane q's system in place with the block factor5 left in
// a: the right-hand-side operations of solve5, in its order.
//
// Hot path: blts/buts block solve, once per grid point per sweep.
func apply5(a *blk8, q int, r *[5]float64) {
	q &= 7
	r[0] *= a[0][q]
	r[1] -= a[1][q] * r[0]
	r[2] -= a[2][q] * r[0]
	r[3] -= a[3][q] * r[0]
	r[4] -= a[4][q] * r[0]
	r[1] *= a[6][q]
	r[2] -= a[7][q] * r[1]
	r[3] -= a[8][q] * r[1]
	r[4] -= a[9][q] * r[1]
	r[2] *= a[12][q]
	r[3] -= a[13][q] * r[2]
	r[4] -= a[14][q] * r[2]
	r[3] *= a[18][q]
	r[4] -= a[19][q] * r[3]
	r[4] *= a[24][q]
	r[3] -= a[23][q] * r[4]
	r[2] -= a[17][q] * r[3]
	r[2] -= a[22][q] * r[4]
	r[1] -= a[11][q] * r[2]
	r[1] -= a[16][q] * r[3]
	r[1] -= a[21][q] * r[4]
	r[0] -= a[5][q] * r[1]
	r[0] -= a[10][q] * r[2]
	r[0] -= a[15][q] * r[3]
	r[0] -= a[20][q] * r[4]
}
