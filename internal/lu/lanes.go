// Code generated by lanegen from blocks.go and kernels.go; DO NOT EDIT.

package lu

import "npbgo/internal/simd"

// couplingX8 runs couplingX on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func couplingX8(live int, dst *[25][8]float64, u *[5][8]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		couplingXAVX512(dst, u, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
	case simd.Width >= 4:
		couplingXAVX(&dst[0][0], &u[0][0], f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		if live > 4 {
			couplingXAVX(&dst[0][4], &u[0][4], f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u0, u1, u2, u3, u4 := u[0][q], u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := 1.0 / u0
			t2 := t1 * t1
			t3 := t1 * t2
			sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
			qs := sq * t1
			dst[0][q] = -d0
			dst[1][q] = f*(-(u1*u1)*t2+c2*qs) + n*(r43*t2*u1)
			dst[2][q] = f*(-(u2*u1)*t2) + n*(c34*t2*u2)
			dst[3][q] = f*(-(u3*u1)*t2) + n*(c34*t2*u3)
			dst[4][q] = f*((c2*2.0*sq-c1*u4)*u1*t2) + n*(m43*t3*u1*u1+m34*t3*u2*u2+m34*t3*u3*u3+c1345*t2*u4)
			dst[5][q] = f
			dst[6][q] = f*((2.0-c2)*u1*t1) - n*(r43*t1) - d1
			dst[7][q] = f * (u2 * t1)
			dst[8][q] = f * (u3 * t1)
			dst[9][q] = f*(c1*u4*t1-c2*(qs+u1*u1*t2)) - n*(m43*t2*u1)
			dst[11][q] = f * (-c2 * u2 * t1)
			dst[12][q] = f*(u1*t1) - n*(c34*t1) - d2
			dst[14][q] = f*(-c2*(u2*u1)*t2) - n*(m34*t2*u2)
			dst[16][q] = f * (-c2 * u3 * t1)
			dst[18][q] = f*(u1*t1) - n*(c34*t1) - d3
			dst[19][q] = f*(-c2*(u3*u1)*t2) - n*(m34*t2*u3)
			dst[21][q] = f * c2
			dst[24][q] = f*(c1*u1*t1) - n*(c1345*t1) - d4
		}
	}
}

// couplingY8 runs couplingY on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func couplingY8(live int, dst *[25][8]float64, u *[5][8]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		couplingYAVX512(dst, u, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
	case simd.Width >= 4:
		couplingYAVX(&dst[0][0], &u[0][0], f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		if live > 4 {
			couplingYAVX(&dst[0][4], &u[0][4], f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u0, u1, u2, u3, u4 := u[0][q], u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := 1.0 / u0
			t2 := t1 * t1
			t3 := t1 * t2
			sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
			qs := sq * t1
			dst[0][q] = -d0
			dst[1][q] = f*(-(u1*u2)*t2) + n*(c34*t2*u1)
			dst[2][q] = f*(-(u2*u2)*t2+c2*qs) + n*(r43*t2*u2)
			dst[3][q] = f*(-(u3*u2)*t2) + n*(c34*t2*u3)
			dst[4][q] = f*((c2*2.0*sq-c1*u4)*u2*t2) + n*(m34*t3*u1*u1+m43*t3*u2*u2+m34*t3*u3*u3+c1345*t2*u4)
			dst[6][q] = f*(u2*t1) - n*(c34*t1) - d1
			dst[7][q] = f * (-c2 * u1 * t1)
			dst[9][q] = f*(-c2*(u1*u2)*t2) - n*(m34*t2*u1)
			dst[10][q] = f
			dst[11][q] = f * (u1 * t1)
			dst[12][q] = f*((2.0-c2)*u2*t1) - n*(r43*t1) - d2
			dst[13][q] = f * (u3 * t1)
			dst[14][q] = f*(c1*u4*t1-c2*(qs+u2*u2*t2)) - n*(m43*t2*u2)
			dst[17][q] = f * (-c2 * u3 * t1)
			dst[18][q] = f*(u2*t1) - n*(c34*t1) - d3
			dst[19][q] = f*(-c2*(u3*u2)*t2) - n*(m34*t2*u3)
			dst[22][q] = f * c2
			dst[24][q] = f*(c1*u2*t1) - n*(c1345*t1) - d4
		}
	}
}

// couplingZ8 runs couplingZ on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func couplingZ8(live int, dst *[25][8]float64, u *[5][8]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		couplingZAVX512(dst, u, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
	case simd.Width >= 4:
		couplingZAVX(&dst[0][0], &u[0][0], f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		if live > 4 {
			couplingZAVX(&dst[0][4], &u[0][4], f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u0, u1, u2, u3, u4 := u[0][q], u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := 1.0 / u0
			t2 := t1 * t1
			t3 := t1 * t2
			sq := 0.5 * (u1*u1 + u2*u2 + u3*u3) * t1
			qs := sq * t1
			dst[0][q] = -d0
			dst[1][q] = f*(-(u1*u3)*t2) + n*(c34*t2*u1)
			dst[2][q] = f*(-(u2*u3)*t2) + n*(c34*t2*u2)
			dst[3][q] = f*(-(u3*u3)*t2+c2*qs) + n*(r43*t2*u3)
			dst[4][q] = f*((c2*2.0*sq-c1*u4)*u3*t2) + n*(m34*t3*u1*u1+m34*t3*u2*u2+m43*t3*u3*u3+c1345*t2*u4)
			dst[6][q] = f*(u3*t1) - n*(c34*t1) - d1
			dst[8][q] = f * (-c2 * u1 * t1)
			dst[9][q] = f*(-c2*(u1*u3)*t2) - n*(m34*t2*u1)
			dst[12][q] = f*(u3*t1) - n*(c34*t1) - d2
			dst[13][q] = f * (-c2 * u2 * t1)
			dst[14][q] = f*(-c2*(u2*u3)*t2) - n*(m34*t2*u2)
			dst[15][q] = f
			dst[16][q] = f * (u1 * t1)
			dst[17][q] = f * (u2 * t1)
			dst[18][q] = f*((2.0-c2)*u3*t1) - n*(r43*t1) - d3
			dst[19][q] = f*(c1*u4*t1-c2*(qs+u3*u3*t2)) - n*(m43*t2*u3)
			dst[23][q] = f * c2
			dst[24][q] = f*(c1*u3*t1) - n*(c1345*t1) - d4
		}
	}
}

// diagonal8 runs diagonal on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func diagonal8(live int, dst *[25][8]float64, u *[5][8]float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		diagonalAVX512(dst, u, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4)
	case simd.Width >= 4:
		diagonalAVX(&dst[0][0], &u[0][0], kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4)
		if live > 4 {
			diagonalAVX(&dst[0][4], &u[0][4], kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u1, u2, u3, u4 := u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := 1.0 / u[0][q]
			t2 := t1 * t1
			t3 := t1 * t2
			dst[0][q] = 1.0 / e0
			dst[1][q] = -kd1 * t2 * u1
			dst[2][q] = -kd2 * t2 * u2
			dst[3][q] = -kd3 * t2 * u3
			dst[4][q] = -(km1*u1*u1+km2*u2*u2+km3*u3*u3)*t3 - te*t2*u4
			dst[6][q] = 1.0 / (kd1*t1 + e1)
			dst[9][q] = km1 * t2 * u1
			dst[12][q] = 1.0 / (kd2*t1 + e2)
			dst[14][q] = km2 * t2 * u2
			dst[18][q] = 1.0 / (kd3*t1 + e3)
			dst[19][q] = km3 * t2 * u3
			dst[24][q] = 1.0 / (te*t1 + e4)
		}
	}
}

// lowerStep8 runs lowerStep on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func lowerStep8(live int, r *[5][8]float64, az, ay, ax, d *[25][8]float64, rz, ry, rx *[5][8]float64, omega float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		lowerStepAVX512(r, az, ay, ax, d, rz, ry, rx, omega)
	case simd.Width >= 4:
		lowerStepAVX(&r[0][0], &az[0][0], &ay[0][0], &ax[0][0], &d[0][0], &rz[0][0], &ry[0][0], &rx[0][0], omega)
		if live > 4 {
			lowerStepAVX(&r[0][4], &az[0][4], &ay[0][4], &ax[0][4], &d[0][4], &rz[0][4], &ry[0][4], &rx[0][4], omega)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			t0 := az[0][q]*rz[0][q] + ay[0][q]*ry[0][q] + ax[0][q]*rx[0][q]
			t0 += az[5][q]*rz[1][q] + ay[5][q]*ry[1][q] + ax[5][q]*rx[1][q]
			t0 += az[10][q]*rz[2][q] + ay[10][q]*ry[2][q] + ax[10][q]*rx[2][q]
			t0 += az[15][q]*rz[3][q] + ay[15][q]*ry[3][q] + ax[15][q]*rx[3][q]
			t0 += az[20][q]*rz[4][q] + ay[20][q]*ry[4][q] + ax[20][q]*rx[4][q]
			t1 := az[1][q]*rz[0][q] + ay[1][q]*ry[0][q] + ax[1][q]*rx[0][q]
			t1 += az[6][q]*rz[1][q] + ay[6][q]*ry[1][q] + ax[6][q]*rx[1][q]
			t1 += az[11][q]*rz[2][q] + ay[11][q]*ry[2][q] + ax[11][q]*rx[2][q]
			t1 += az[16][q]*rz[3][q] + ay[16][q]*ry[3][q] + ax[16][q]*rx[3][q]
			t1 += az[21][q]*rz[4][q] + ay[21][q]*ry[4][q] + ax[21][q]*rx[4][q]
			t2 := az[2][q]*rz[0][q] + ay[2][q]*ry[0][q] + ax[2][q]*rx[0][q]
			t2 += az[7][q]*rz[1][q] + ay[7][q]*ry[1][q] + ax[7][q]*rx[1][q]
			t2 += az[12][q]*rz[2][q] + ay[12][q]*ry[2][q] + ax[12][q]*rx[2][q]
			t2 += az[17][q]*rz[3][q] + ay[17][q]*ry[3][q] + ax[17][q]*rx[3][q]
			t2 += az[22][q]*rz[4][q] + ay[22][q]*ry[4][q] + ax[22][q]*rx[4][q]
			t3 := az[3][q]*rz[0][q] + ay[3][q]*ry[0][q] + ax[3][q]*rx[0][q]
			t3 += az[8][q]*rz[1][q] + ay[8][q]*ry[1][q] + ax[8][q]*rx[1][q]
			t3 += az[13][q]*rz[2][q] + ay[13][q]*ry[2][q] + ax[13][q]*rx[2][q]
			t3 += az[18][q]*rz[3][q] + ay[18][q]*ry[3][q] + ax[18][q]*rx[3][q]
			t3 += az[23][q]*rz[4][q] + ay[23][q]*ry[4][q] + ax[23][q]*rx[4][q]
			t4 := az[4][q]*rz[0][q] + ay[4][q]*ry[0][q] + ax[4][q]*rx[0][q]
			t4 += az[9][q]*rz[1][q] + ay[9][q]*ry[1][q] + ax[9][q]*rx[1][q]
			t4 += az[14][q]*rz[2][q] + ay[14][q]*ry[2][q] + ax[14][q]*rx[2][q]
			t4 += az[19][q]*rz[3][q] + ay[19][q]*ry[3][q] + ax[19][q]*rx[3][q]
			t4 += az[24][q]*rz[4][q] + ay[24][q]*ry[4][q] + ax[24][q]*rx[4][q]
			t0 = r[0][q] - omega*t0
			t1 = r[1][q] - omega*t1
			t2 = r[2][q] - omega*t2
			t3 = r[3][q] - omega*t3
			t4 = r[4][q] - omega*t4
			t0 *= d[0][q]
			t1 -= d[1][q] * t0
			t2 -= d[2][q] * t0
			t3 -= d[3][q] * t0
			t4 -= d[4][q] * t0
			t1 *= d[6][q]
			t4 -= d[9][q] * t1
			t2 *= d[12][q]
			t4 -= d[14][q] * t2
			t3 *= d[18][q]
			t4 -= d[19][q] * t3
			t4 *= d[24][q]
			r[0][q] = t0
			r[1][q] = t1
			r[2][q] = t2
			r[3][q] = t3
			r[4][q] = t4
		}
	}
}

// upperStep8 runs upperStep on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func upperStep8(live int, r *[5][8]float64, az, ay, ax, d *[25][8]float64, rz, ry, rx *[5][8]float64, omega float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		upperStepAVX512(r, az, ay, ax, d, rz, ry, rx, omega)
	case simd.Width >= 4:
		upperStepAVX(&r[0][0], &az[0][0], &ay[0][0], &ax[0][0], &d[0][0], &rz[0][0], &ry[0][0], &rx[0][0], omega)
		if live > 4 {
			upperStepAVX(&r[0][4], &az[0][4], &ay[0][4], &ax[0][4], &d[0][4], &rz[0][4], &ry[0][4], &rx[0][4], omega)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			t0 := az[0][q]*rz[0][q] + ay[0][q]*ry[0][q] + ax[0][q]*rx[0][q]
			t0 += az[5][q]*rz[1][q] + ay[5][q]*ry[1][q] + ax[5][q]*rx[1][q]
			t0 += az[10][q]*rz[2][q] + ay[10][q]*ry[2][q] + ax[10][q]*rx[2][q]
			t0 += az[15][q]*rz[3][q] + ay[15][q]*ry[3][q] + ax[15][q]*rx[3][q]
			t0 += az[20][q]*rz[4][q] + ay[20][q]*ry[4][q] + ax[20][q]*rx[4][q]
			t1 := az[1][q]*rz[0][q] + ay[1][q]*ry[0][q] + ax[1][q]*rx[0][q]
			t1 += az[6][q]*rz[1][q] + ay[6][q]*ry[1][q] + ax[6][q]*rx[1][q]
			t1 += az[11][q]*rz[2][q] + ay[11][q]*ry[2][q] + ax[11][q]*rx[2][q]
			t1 += az[16][q]*rz[3][q] + ay[16][q]*ry[3][q] + ax[16][q]*rx[3][q]
			t1 += az[21][q]*rz[4][q] + ay[21][q]*ry[4][q] + ax[21][q]*rx[4][q]
			t2 := az[2][q]*rz[0][q] + ay[2][q]*ry[0][q] + ax[2][q]*rx[0][q]
			t2 += az[7][q]*rz[1][q] + ay[7][q]*ry[1][q] + ax[7][q]*rx[1][q]
			t2 += az[12][q]*rz[2][q] + ay[12][q]*ry[2][q] + ax[12][q]*rx[2][q]
			t2 += az[17][q]*rz[3][q] + ay[17][q]*ry[3][q] + ax[17][q]*rx[3][q]
			t2 += az[22][q]*rz[4][q] + ay[22][q]*ry[4][q] + ax[22][q]*rx[4][q]
			t3 := az[3][q]*rz[0][q] + ay[3][q]*ry[0][q] + ax[3][q]*rx[0][q]
			t3 += az[8][q]*rz[1][q] + ay[8][q]*ry[1][q] + ax[8][q]*rx[1][q]
			t3 += az[13][q]*rz[2][q] + ay[13][q]*ry[2][q] + ax[13][q]*rx[2][q]
			t3 += az[18][q]*rz[3][q] + ay[18][q]*ry[3][q] + ax[18][q]*rx[3][q]
			t3 += az[23][q]*rz[4][q] + ay[23][q]*ry[4][q] + ax[23][q]*rx[4][q]
			t4 := az[4][q]*rz[0][q] + ay[4][q]*ry[0][q] + ax[4][q]*rx[0][q]
			t4 += az[9][q]*rz[1][q] + ay[9][q]*ry[1][q] + ax[9][q]*rx[1][q]
			t4 += az[14][q]*rz[2][q] + ay[14][q]*ry[2][q] + ax[14][q]*rx[2][q]
			t4 += az[19][q]*rz[3][q] + ay[19][q]*ry[3][q] + ax[19][q]*rx[3][q]
			t4 += az[24][q]*rz[4][q] + ay[24][q]*ry[4][q] + ax[24][q]*rx[4][q]
			t0 *= omega
			t1 *= omega
			t2 *= omega
			t3 *= omega
			t4 *= omega
			t0 *= d[0][q]
			t1 -= d[1][q] * t0
			t2 -= d[2][q] * t0
			t3 -= d[3][q] * t0
			t4 -= d[4][q] * t0
			t1 *= d[6][q]
			t4 -= d[9][q] * t1
			t2 *= d[12][q]
			t4 -= d[14][q] * t2
			t3 *= d[18][q]
			t4 -= d[19][q] * t3
			t4 *= d[24][q]
			r[0][q] -= t0
			r[1][q] -= t1
			r[2][q] -= t2
			r[3][q] -= t3
			r[4][q] -= t4
		}
	}
}

// opVelRow runs opVel at each point i < len(v1) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func opVelRow(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 []float64) {
	count := len(v1)
	if len(v2) < count || len(v3) < count || len(v4) < count || len(sq) < count || len(w0) < count || len(w1) < count || len(w2) < count || len(w3) < count || len(w4) < count {
		panic("lu: opVelRow: a row is shorter than v1")
	}
	v2, v3, v4, sq, w0, w1, w2, w3, w4 = v2[:count], v3[:count], v4[:count], sq[:count], w0[:count], w1[:count], w2[:count], w3[:count], w4[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		opVelAVX512(&v1[0], &v2[0], &v3[0], &v4[0], &sq[0], &w0[0], &w1[0], &w2[0], &w3[0], &w4[0], count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		opVelAVX(&v1[done], &v2[done], &v3[done], &v4[done], &sq[done], &w0[done], &w1[done], &w2[done], &w3[done], &w4[done], (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		tmp := 1.0 / w0[i]
		u1 := tmp * w1[i]
		u2 := tmp * w2[i]
		u3 := tmp * w3[i]
		v1[i] = u1
		v2[i] = u2
		v3[i] = u3
		v4[i] = tmp * w4[i]
		sq[i] = u1*u1 + u2*u2 + u3*u3
	}
}

// opFluxRow runs opFlux at each point i < len(fa) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func opFluxRow(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc []float64, c1, c2 float64) {
	count := len(fa)
	if len(fb) < count || len(fc) < count || len(f4) < count || len(w0) < count || len(w1) < count || len(w2) < count || len(w3) < count || len(w4) < count || len(wa) < count || len(wb) < count || len(wc) < count {
		panic("lu: opFluxRow: a row is shorter than fa")
	}
	fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc = fb[:count], fc[:count], f4[:count], w0[:count], w1[:count], w2[:count], w3[:count], w4[:count], wa[:count], wb[:count], wc[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		opFluxAVX512(&fa[0], &fb[0], &fc[0], &f4[0], &w0[0], &w1[0], &w2[0], &w3[0], &w4[0], &wa[0], &wb[0], &wc[0], c1, c2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		opFluxAVX(&fa[done], &fb[done], &fc[done], &f4[done], &w0[done], &w1[done], &w2[done], &w3[done], &w4[done], &wa[done], &wb[done], &wc[done], c1, c2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		u := wa[i] / w0[i]
		q := 0.5 * (w1[i]*w1[i] + w2[i]*w2[i] + w3[i]*w3[i]) / w0[i]
		fa[i] = wa[i]*u + c2*(w4[i]-q)
		fb[i] = wb[i] * u
		fc[i] = wc[i] * u
		f4[i] = (c1*w4[i] - c2*q) * u
	}
}

// opVisc4Row runs opVisc4 at each point i < len(h) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func opVisc4Row(h, sq, sqm, va, vam, v4, v4m []float64, e1, e2, e3 float64) {
	count := len(h)
	if len(sq) < count || len(sqm) < count || len(va) < count || len(vam) < count || len(v4) < count || len(v4m) < count {
		panic("lu: opVisc4Row: a row is shorter than h")
	}
	sq, sqm, va, vam, v4, v4m = sq[:count], sqm[:count], va[:count], vam[:count], v4[:count], v4m[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		opVisc4AVX512(&h[0], &sq[0], &sqm[0], &va[0], &vam[0], &v4[0], &v4m[0], e1, e2, e3, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		opVisc4AVX(&h[done], &sq[done], &sqm[done], &va[done], &vam[done], &v4[done], &v4m[done], e1, e2, e3, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		h[i] = e1*(sq[i]-sqm[i]) + e2*(va[i]*va[i]-vam[i]*vam[i]) + e3*(v4[i]-v4m[i])
	}
}

// opRhoRow runs opRho at each point i < len(o) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func opRhoRow(o, dis, fp, fm, wm, w, wp []float64, t2, d float64) {
	count := len(o)
	if len(dis) < count || len(fp) < count || len(fm) < count || len(wm) < count || len(w) < count || len(wp) < count {
		panic("lu: opRhoRow: a row is shorter than o")
	}
	dis, fp, fm, wm, w, wp = dis[:count], fp[:count], fm[:count], wm[:count], w[:count], wp[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		opRhoAVX512(&o[0], &dis[0], &fp[0], &fm[0], &wm[0], &w[0], &wp[0], t2, d, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		opRhoAVX(&o[done], &dis[done], &fp[done], &fm[done], &wm[done], &w[done], &wp[done], t2, d, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		o[i] -= t2 * (fp[i] - fm[i])
		o[i] += d * (wm[i] - 2.0*w[i] + wp[i])
		o[i] -= dis[i]
	}
}

// opMomRow runs opMom at each point i < len(o) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func opMomRow(o, dis, fp, fm, vp, v, vm, wm, w, wp []float64, t2, visc, t3c34, d float64) {
	count := len(o)
	if len(dis) < count || len(fp) < count || len(fm) < count || len(vp) < count || len(v) < count || len(vm) < count || len(wm) < count || len(w) < count || len(wp) < count {
		panic("lu: opMomRow: a row is shorter than o")
	}
	dis, fp, fm, vp, v, vm, wm, w, wp = dis[:count], fp[:count], fm[:count], vp[:count], v[:count], vm[:count], wm[:count], w[:count], wp[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		opMomAVX512(&o[0], &dis[0], &fp[0], &fm[0], &vp[0], &v[0], &vm[0], &wm[0], &w[0], &wp[0], t2, visc, t3c34, d, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		opMomAVX(&o[done], &dis[done], &fp[done], &fm[done], &vp[done], &v[done], &vm[done], &wm[done], &w[done], &wp[done], t2, visc, t3c34, d, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		o[i] -= t2 * (fp[i] - fm[i])
		o[i] += t3c34*(visc*(vp[i]-v[i])-visc*(v[i]-vm[i])) + d*(wm[i]-2.0*w[i]+wp[i])
		o[i] -= dis[i]
	}
}

// opEnergyRow runs opEnergy at each point i < len(o) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func opEnergyRow(o, dis, fp, fm, hp, h, wm, w, wp []float64, t2, t3c34, d float64) {
	count := len(o)
	if len(dis) < count || len(fp) < count || len(fm) < count || len(hp) < count || len(h) < count || len(wm) < count || len(w) < count || len(wp) < count {
		panic("lu: opEnergyRow: a row is shorter than o")
	}
	dis, fp, fm, hp, h, wm, w, wp = dis[:count], fp[:count], fm[:count], hp[:count], h[:count], wm[:count], w[:count], wp[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		opEnergyAVX512(&o[0], &dis[0], &fp[0], &fm[0], &hp[0], &h[0], &wm[0], &w[0], &wp[0], t2, t3c34, d, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		opEnergyAVX(&o[done], &dis[done], &fp[done], &fm[done], &hp[done], &h[done], &wm[done], &w[done], &wp[done], t2, t3c34, d, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		o[i] -= t2 * (fp[i] - fm[i])
		o[i] += t3c34*(hp[i]-h[i]) + d*(wm[i]-2.0*w[i]+wp[i])
		o[i] -= dis[i]
	}
}
