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
// each builder and the two sweep steps into a kernel that runs
// the eight points of a wave (ssor.go) at once, bit for bit the scalar
// body (lanes.go, lanes_amd64.s).

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
// blockConsts' kd, km, te and e, factored: no flux Jacobian enters it,
// and the block is lower triangular, so the factor is the block with
// its pivots' reciprocals on the diagonal, and the sweep steps solve
// with it by forward substitution alone. That is the
// unpivoted elimination's every bit (factor5 and solve5, lu_test.go)
// while every pivot is positive and finite and no intermediate value is
// -0 or not finite (DESIGN.md §36).
//
//lanegen:lanes
func diagonal(dst *[25]float64, u *[5]float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := 1.0 / u[0]
	t2 := t1 * t1
	t3 := t1 * t2
	dst[0] = 1.0 / e0
	dst[1] = -kd1 * t2 * u1
	dst[2] = -kd2 * t2 * u2
	dst[3] = -kd3 * t2 * u3
	dst[4] = -(km1*u1*u1+km2*u2*u2+km3*u3*u3)*t3 - te*t2*u4
	dst[6] = 1.0 / (kd1*t1 + e1)
	dst[9] = km1 * t2 * u1
	dst[12] = 1.0 / (kd2*t1 + e2)
	dst[14] = km2 * t2 * u2
	dst[18] = 1.0 / (kd3*t1 + e3)
	dst[19] = km3 * t2 * u3
	dst[24] = 1.0 / (te*t1 + e4)
}

// lowerStep is the lower sweep's update of one point, with the blocks
// waveBlocks built: the couplings az, ay and ax applied to rsd at the
// point's k-1, j-1 and i-1 neighbours (rz, ry, rx), its rsd r less
// omega times that sum, and the system of the factored diagonal block
// d solved in place — the oracle sweep's coupledSum, omega update and
// apply5 (lu_test.go), term for term in their order.
//
//lanegen:lanes
func lowerStep(r *[5]float64, az, ay, ax, d *[25]float64, rz, ry, rx *[5]float64, omega float64) {
	t0 := az[0]*rz[0] + ay[0]*ry[0] + ax[0]*rx[0]
	t0 += az[5]*rz[1] + ay[5]*ry[1] + ax[5]*rx[1]
	t0 += az[10]*rz[2] + ay[10]*ry[2] + ax[10]*rx[2]
	t0 += az[15]*rz[3] + ay[15]*ry[3] + ax[15]*rx[3]
	t0 += az[20]*rz[4] + ay[20]*ry[4] + ax[20]*rx[4]
	t1 := az[1]*rz[0] + ay[1]*ry[0] + ax[1]*rx[0]
	t1 += az[6]*rz[1] + ay[6]*ry[1] + ax[6]*rx[1]
	t1 += az[11]*rz[2] + ay[11]*ry[2] + ax[11]*rx[2]
	t1 += az[16]*rz[3] + ay[16]*ry[3] + ax[16]*rx[3]
	t1 += az[21]*rz[4] + ay[21]*ry[4] + ax[21]*rx[4]
	t2 := az[2]*rz[0] + ay[2]*ry[0] + ax[2]*rx[0]
	t2 += az[7]*rz[1] + ay[7]*ry[1] + ax[7]*rx[1]
	t2 += az[12]*rz[2] + ay[12]*ry[2] + ax[12]*rx[2]
	t2 += az[17]*rz[3] + ay[17]*ry[3] + ax[17]*rx[3]
	t2 += az[22]*rz[4] + ay[22]*ry[4] + ax[22]*rx[4]
	t3 := az[3]*rz[0] + ay[3]*ry[0] + ax[3]*rx[0]
	t3 += az[8]*rz[1] + ay[8]*ry[1] + ax[8]*rx[1]
	t3 += az[13]*rz[2] + ay[13]*ry[2] + ax[13]*rx[2]
	t3 += az[18]*rz[3] + ay[18]*ry[3] + ax[18]*rx[3]
	t3 += az[23]*rz[4] + ay[23]*ry[4] + ax[23]*rx[4]
	t4 := az[4]*rz[0] + ay[4]*ry[0] + ax[4]*rx[0]
	t4 += az[9]*rz[1] + ay[9]*ry[1] + ax[9]*rx[1]
	t4 += az[14]*rz[2] + ay[14]*ry[2] + ax[14]*rx[2]
	t4 += az[19]*rz[3] + ay[19]*ry[3] + ax[19]*rx[3]
	t4 += az[24]*rz[4] + ay[24]*ry[4] + ax[24]*rx[4]
	t0 = r[0] - omega*t0
	t1 = r[1] - omega*t1
	t2 = r[2] - omega*t2
	t3 = r[3] - omega*t3
	t4 = r[4] - omega*t4
	t0 *= d[0]
	t1 -= d[1] * t0
	t2 -= d[2] * t0
	t3 -= d[3] * t0
	t4 -= d[4] * t0
	t1 *= d[6]
	t4 -= d[9] * t1
	t2 *= d[12]
	t4 -= d[14] * t2
	t3 *= d[18]
	t4 -= d[19] * t3
	t4 *= d[24]
	r[0] = t0
	r[1] = t1
	r[2] = t2
	r[3] = t3
	r[4] = t4
}

// upperStep is the upper sweep's update of one point: omega times the
// couplings to rsd at its k+1, j+1 and i+1 neighbours, solved with the
// diagonal block d and subtracted from r, term for term as lowerStep.
//
//lanegen:lanes
func upperStep(r *[5]float64, az, ay, ax, d *[25]float64, rz, ry, rx *[5]float64, omega float64) {
	t0 := az[0]*rz[0] + ay[0]*ry[0] + ax[0]*rx[0]
	t0 += az[5]*rz[1] + ay[5]*ry[1] + ax[5]*rx[1]
	t0 += az[10]*rz[2] + ay[10]*ry[2] + ax[10]*rx[2]
	t0 += az[15]*rz[3] + ay[15]*ry[3] + ax[15]*rx[3]
	t0 += az[20]*rz[4] + ay[20]*ry[4] + ax[20]*rx[4]
	t1 := az[1]*rz[0] + ay[1]*ry[0] + ax[1]*rx[0]
	t1 += az[6]*rz[1] + ay[6]*ry[1] + ax[6]*rx[1]
	t1 += az[11]*rz[2] + ay[11]*ry[2] + ax[11]*rx[2]
	t1 += az[16]*rz[3] + ay[16]*ry[3] + ax[16]*rx[3]
	t1 += az[21]*rz[4] + ay[21]*ry[4] + ax[21]*rx[4]
	t2 := az[2]*rz[0] + ay[2]*ry[0] + ax[2]*rx[0]
	t2 += az[7]*rz[1] + ay[7]*ry[1] + ax[7]*rx[1]
	t2 += az[12]*rz[2] + ay[12]*ry[2] + ax[12]*rx[2]
	t2 += az[17]*rz[3] + ay[17]*ry[3] + ax[17]*rx[3]
	t2 += az[22]*rz[4] + ay[22]*ry[4] + ax[22]*rx[4]
	t3 := az[3]*rz[0] + ay[3]*ry[0] + ax[3]*rx[0]
	t3 += az[8]*rz[1] + ay[8]*ry[1] + ax[8]*rx[1]
	t3 += az[13]*rz[2] + ay[13]*ry[2] + ax[13]*rx[2]
	t3 += az[18]*rz[3] + ay[18]*ry[3] + ax[18]*rx[3]
	t3 += az[23]*rz[4] + ay[23]*ry[4] + ax[23]*rx[4]
	t4 := az[4]*rz[0] + ay[4]*ry[0] + ax[4]*rx[0]
	t4 += az[9]*rz[1] + ay[9]*ry[1] + ax[9]*rx[1]
	t4 += az[14]*rz[2] + ay[14]*ry[2] + ax[14]*rx[2]
	t4 += az[19]*rz[3] + ay[19]*ry[3] + ax[19]*rx[3]
	t4 += az[24]*rz[4] + ay[24]*ry[4] + ax[24]*rx[4]
	t0 *= omega
	t1 *= omega
	t2 *= omega
	t3 *= omega
	t4 *= omega
	t0 *= d[0]
	t1 -= d[1] * t0
	t2 -= d[2] * t0
	t3 -= d[3] * t0
	t4 -= d[4] * t0
	t1 *= d[6]
	t4 -= d[9] * t1
	t2 *= d[12]
	t4 -= d[14] * t2
	t3 *= d[18]
	t4 -= d[19] * t3
	t4 *= d[24]
	r[0] -= t0
	r[1] -= t1
	r[2] -= t2
	r[3] -= t3
	r[4] -= t4
}
