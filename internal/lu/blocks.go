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
// writes only the structural non-zeros of its block, so each direction
// owns a scratch block whose zeros, set once at allocation, persist.

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

// couplingX fills dst with the xi-direction coupling block at state u.
//
// Hot path: jacld/jacu xi block, once per grid point per sweep.
func (k *blockConsts) couplingX(dst *[25]float64, u *[5]float64, sign float64) {
	dc := &k.x
	u0, u1, u2, u3, u4 := u[0], u[1], u[2], u[3], u[4]
	t1 := 1.0 / u0
	t2 := t1 * t1
	t3 := t1 * t2
	sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
	qs := sq * t1
	f, n := sign*dc.c2, dc.c1
	dst[0] = -dc.d[0]
	dst[1] = f*(-(u1*u1)*t2+k.c2*qs) + n*(k.r43*t2*u1)
	dst[2] = f*(-(u2*u1)*t2) + n*(k.c34*t2*u2)
	dst[3] = f*(-(u3*u1)*t2) + n*(k.c34*t2*u3)
	dst[4] = f*((k.c2*2.0*sq-k.c1*u4)*u1*t2) + n*(k.m43*t3*u1*u1+k.m34*t3*u2*u2+k.m34*t3*u3*u3+k.c1345*t2*u4)
	dst[5] = f
	dst[6] = f*((2.0-k.c2)*u1*t1) - n*(k.r43*t1) - dc.d[1]
	dst[7] = f * (u2 * t1)
	dst[8] = f * (u3 * t1)
	dst[9] = f*(k.c1*u4*t1-k.c2*(qs+u1*u1*t2)) - n*(k.m43*t2*u1)
	dst[11] = f * (-k.c2 * u2 * t1)
	dst[12] = f*(u1*t1) - n*(k.c34*t1) - dc.d[2]
	dst[14] = f*(-k.c2*(u2*u1)*t2) - n*(k.m34*t2*u2)
	dst[16] = f * (-k.c2 * u3 * t1)
	dst[18] = f*(u1*t1) - n*(k.c34*t1) - dc.d[3]
	dst[19] = f*(-k.c2*(u3*u1)*t2) - n*(k.m34*t2*u3)
	dst[21] = f * k.c2
	dst[24] = f*(k.c1*u1*t1) - n*(k.c1345*t1) - dc.d[4]
}

// couplingY fills dst with the eta-direction coupling block at state u.
//
// Hot path: jacld/jacu eta block, once per grid point per sweep.
func (k *blockConsts) couplingY(dst *[25]float64, u *[5]float64, sign float64) {
	dc := &k.y
	u0, u1, u2, u3, u4 := u[0], u[1], u[2], u[3], u[4]
	t1 := 1.0 / u0
	t2 := t1 * t1
	t3 := t1 * t2
	sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
	qs := sq * t1
	f, n := sign*dc.c2, dc.c1
	dst[0] = -dc.d[0]
	dst[1] = f*(-(u1*u2)*t2) + n*(k.c34*t2*u1)
	dst[2] = f*(-(u2*u2)*t2+k.c2*qs) + n*(k.r43*t2*u2)
	dst[3] = f*(-(u3*u2)*t2) + n*(k.c34*t2*u3)
	dst[4] = f*((k.c2*2.0*sq-k.c1*u4)*u2*t2) + n*(k.m34*t3*u1*u1+k.m43*t3*u2*u2+k.m34*t3*u3*u3+k.c1345*t2*u4)
	dst[6] = f*(u2*t1) - n*(k.c34*t1) - dc.d[1]
	dst[7] = f * (-k.c2 * u1 * t1)
	dst[9] = f*(-k.c2*(u1*u2)*t2) - n*(k.m34*t2*u1)
	dst[10] = f
	dst[11] = f * (u1 * t1)
	dst[12] = f*((2.0-k.c2)*u2*t1) - n*(k.r43*t1) - dc.d[2]
	dst[13] = f * (u3 * t1)
	dst[14] = f*(k.c1*u4*t1-k.c2*(qs+u2*u2*t2)) - n*(k.m43*t2*u2)
	dst[17] = f * (-k.c2 * u3 * t1)
	dst[18] = f*(u2*t1) - n*(k.c34*t1) - dc.d[3]
	dst[19] = f*(-k.c2*(u3*u2)*t2) - n*(k.m34*t2*u3)
	dst[22] = f * k.c2
	dst[24] = f*(k.c1*u2*t1) - n*(k.c1345*t1) - dc.d[4]
}

// couplingZ fills dst with the zeta-direction coupling block at state u.
//
// Hot path: jacld/jacu zeta block, once per grid point per sweep.
func (k *blockConsts) couplingZ(dst *[25]float64, u *[5]float64, sign float64) {
	dc := &k.z
	u0, u1, u2, u3, u4 := u[0], u[1], u[2], u[3], u[4]
	t1 := 1.0 / u0
	t2 := t1 * t1
	t3 := t1 * t2
	sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
	qs := sq * t1
	f, n := sign*dc.c2, dc.c1
	dst[0] = -dc.d[0]
	dst[1] = f*(-(u1*u3)*t2) + n*(k.c34*t2*u1)
	dst[2] = f*(-(u2*u3)*t2) + n*(k.c34*t2*u2)
	dst[3] = f*(-(u3*u3)*t2+k.c2*qs) + n*(k.r43*t2*u3)
	dst[4] = f*((k.c2*2.0*sq-k.c1*u4)*u3*t2) + n*(k.m34*t3*u1*u1+k.m34*t3*u2*u2+k.m43*t3*u3*u3+k.c1345*t2*u4)
	dst[6] = f*(u3*t1) - n*(k.c34*t1) - dc.d[1]
	dst[8] = f * (-k.c2 * u1 * t1)
	dst[9] = f*(-k.c2*(u1*u3)*t2) - n*(k.m34*t2*u1)
	dst[12] = f*(u3*t1) - n*(k.c34*t1) - dc.d[2]
	dst[13] = f * (-k.c2 * u2 * t1)
	dst[14] = f*(-k.c2*(u2*u3)*t2) - n*(k.m34*t2*u2)
	dst[15] = f
	dst[16] = f * (u1 * t1)
	dst[17] = f * (u2 * t1)
	dst[18] = f*((2.0-k.c2)*u3*t1) - n*(k.r43*t1) - dc.d[3]
	dst[19] = f*(k.c1*u4*t1-k.c2*(qs+u3*u3*t2)) - n*(k.m43*t2*u3)
	dst[23] = f * k.c2
	dst[24] = f*(k.c1*u3*t1) - n*(k.c1345*t1) - dc.d[4]
}

// diagonal fills dst with the block-diagonal matrix at state u. No flux
// Jacobian enters it, and the block is lower triangular.
//
// Hot path: jacld/jacu d block, once per grid point per sweep.
func (k *blockConsts) diagonal(dst *[25]float64, u *[5]float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := 1.0 / u[0]
	t2 := t1 * t1
	t3 := t1 * t2
	dst[0] = k.e[0]
	dst[1] = -k.kd[1] * t2 * u1
	dst[2] = -k.kd[2] * t2 * u2
	dst[3] = -k.kd[3] * t2 * u3
	dst[4] = -(k.km[1]*u1*u1+k.km[2]*u2*u2+k.km[3]*u3*u3)*t3 - k.te*t2*u4
	dst[6] = k.kd[1]*t1 + k.e[1]
	dst[9] = k.km[1] * t2 * u1
	dst[12] = k.kd[2]*t1 + k.e[2]
	dst[14] = k.km[2] * t2 * u2
	dst[18] = k.kd[3]*t1 + k.e[3]
	dst[19] = k.km[3] * t2 * u3
	dst[24] = k.te*t1 + k.e[4]
}

// solve5 solves the 5x5 system a*x = r in place (unpivoted Gaussian
// elimination, as blts/buts do; the blocks are diagonally dominant),
// written out in full: pivots p = 0..4, each scaling its row and then
// eliminating rows q > p, followed by the back substitution.
//
// Hot path: blts/buts block solve, once per grid point per sweep.
func solve5(a *[25]float64, r *[5]float64) {
	piv := 1.0 / a[0]
	a[5] *= piv
	a[10] *= piv
	a[15] *= piv
	a[20] *= piv
	r[0] *= piv
	coeff := a[1]
	a[6] -= coeff * a[5]
	a[11] -= coeff * a[10]
	a[16] -= coeff * a[15]
	a[21] -= coeff * a[20]
	r[1] -= coeff * r[0]
	coeff = a[2]
	a[7] -= coeff * a[5]
	a[12] -= coeff * a[10]
	a[17] -= coeff * a[15]
	a[22] -= coeff * a[20]
	r[2] -= coeff * r[0]
	coeff = a[3]
	a[8] -= coeff * a[5]
	a[13] -= coeff * a[10]
	a[18] -= coeff * a[15]
	a[23] -= coeff * a[20]
	r[3] -= coeff * r[0]
	coeff = a[4]
	a[9] -= coeff * a[5]
	a[14] -= coeff * a[10]
	a[19] -= coeff * a[15]
	a[24] -= coeff * a[20]
	r[4] -= coeff * r[0]
	piv = 1.0 / a[6]
	a[11] *= piv
	a[16] *= piv
	a[21] *= piv
	r[1] *= piv
	coeff = a[7]
	a[12] -= coeff * a[11]
	a[17] -= coeff * a[16]
	a[22] -= coeff * a[21]
	r[2] -= coeff * r[1]
	coeff = a[8]
	a[13] -= coeff * a[11]
	a[18] -= coeff * a[16]
	a[23] -= coeff * a[21]
	r[3] -= coeff * r[1]
	coeff = a[9]
	a[14] -= coeff * a[11]
	a[19] -= coeff * a[16]
	a[24] -= coeff * a[21]
	r[4] -= coeff * r[1]
	piv = 1.0 / a[12]
	a[17] *= piv
	a[22] *= piv
	r[2] *= piv
	coeff = a[13]
	a[18] -= coeff * a[17]
	a[23] -= coeff * a[22]
	r[3] -= coeff * r[2]
	coeff = a[14]
	a[19] -= coeff * a[17]
	a[24] -= coeff * a[22]
	r[4] -= coeff * r[2]
	piv = 1.0 / a[18]
	a[23] *= piv
	r[3] *= piv
	coeff = a[19]
	a[24] -= coeff * a[23]
	r[4] -= coeff * r[3]
	piv = 1.0 / a[24]
	r[4] *= piv
	r[3] -= a[23] * r[4]
	r[2] -= a[17] * r[3]
	r[2] -= a[22] * r[4]
	r[1] -= a[11] * r[2]
	r[1] -= a[16] * r[3]
	r[1] -= a[21] * r[4]
	r[0] -= a[5] * r[1]
	r[0] -= a[10] * r[2]
	r[0] -= a[15] * r[3]
	r[0] -= a[20] * r[4]
}
