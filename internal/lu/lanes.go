// Code generated by lanegen from blocks.go and kernels.go; DO NOT EDIT.

package lu

import "npbgo/internal/simd"

// couplingX4 runs couplingX on four lanes, element e of lane q at [e][q].
func couplingX4(dst *[25][4]float64, u *[5][4]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	if simd.AVX {
		couplingXAVX(dst, u, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [5]float64
		gatherLane(lane0[:], dst[:], q)
		gatherLane(lane1[:], u[:], q)
		couplingX(&lane0, &lane1, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		scatterLane(dst[:], lane0[:], q)
	}
}

// couplingY4 runs couplingY on four lanes, element e of lane q at [e][q].
func couplingY4(dst *[25][4]float64, u *[5][4]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	if simd.AVX {
		couplingYAVX(dst, u, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [5]float64
		gatherLane(lane0[:], dst[:], q)
		gatherLane(lane1[:], u[:], q)
		couplingY(&lane0, &lane1, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		scatterLane(dst[:], lane0[:], q)
	}
}

// couplingZ4 runs couplingZ on four lanes, element e of lane q at [e][q].
func couplingZ4(dst *[25][4]float64, u *[5][4]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	if simd.AVX {
		couplingZAVX(dst, u, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [5]float64
		gatherLane(lane0[:], dst[:], q)
		gatherLane(lane1[:], u[:], q)
		couplingZ(&lane0, &lane1, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4)
		scatterLane(dst[:], lane0[:], q)
	}
}

// diagonal4 runs diagonal on four lanes, element e of lane q at [e][q].
func diagonal4(dst *[25][4]float64, u *[5][4]float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	if simd.AVX {
		diagonalAVX(dst, u, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [5]float64
		gatherLane(lane0[:], dst[:], q)
		gatherLane(lane1[:], u[:], q)
		diagonal(&lane0, &lane1, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4)
		scatterLane(dst[:], lane0[:], q)
	}
}

// factor54 runs factor5 on four lanes, element e of lane q at [e][q].
func factor54(a *[25][4]float64) {
	if simd.AVX {
		factor5AVX(a)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		gatherLane(lane0[:], a[:], q)
		factor5(&lane0)
		scatterLane(a[:], lane0[:], q)
	}
}

// opVelRow runs opVel at each point i < len(v1) of its rows, four points
// per instruction where the CPU allows and the scalar body on the rest.
func opVelRow(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 []float64) {
	count := len(v1)
	if len(v2) < count || len(v3) < count || len(v4) < count || len(sq) < count || len(w0) < count || len(w1) < count || len(w2) < count || len(w3) < count || len(w4) < count {
		panic("lu: opVelRow: a row is shorter than v1")
	}
	v2, v3, v4, sq, w0, w1, w2, w3, w4 = v2[:count], v3[:count], v4[:count], sq[:count], w0[:count], w1[:count], w2[:count], w3[:count], w4[:count]
	groups := 0
	if simd.AVX {
		groups = count / 4
		if groups > 0 {
			opVelAVX(&v1[0], &v2[0], &v3[0], &v4[0], &sq[0], &w0[0], &w1[0], &w2[0], &w3[0], &w4[0], groups)
		}
	}
	for i := 4 * groups; i < count; i++ {
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

// opFluxRow runs opFlux at each point i < len(fa) of its rows, four points
// per instruction where the CPU allows and the scalar body on the rest.
func opFluxRow(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc []float64, c1, c2 float64) {
	count := len(fa)
	if len(fb) < count || len(fc) < count || len(f4) < count || len(w0) < count || len(w1) < count || len(w2) < count || len(w3) < count || len(w4) < count || len(wa) < count || len(wb) < count || len(wc) < count {
		panic("lu: opFluxRow: a row is shorter than fa")
	}
	fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc = fb[:count], fc[:count], f4[:count], w0[:count], w1[:count], w2[:count], w3[:count], w4[:count], wa[:count], wb[:count], wc[:count]
	groups := 0
	if simd.AVX {
		groups = count / 4
		if groups > 0 {
			opFluxAVX(&fa[0], &fb[0], &fc[0], &f4[0], &w0[0], &w1[0], &w2[0], &w3[0], &w4[0], &wa[0], &wb[0], &wc[0], c1, c2, groups)
		}
	}
	for i := 4 * groups; i < count; i++ {
		u := wa[i] / w0[i]
		q := 0.5 * (w1[i]*w1[i] + w2[i]*w2[i] + w3[i]*w3[i]) / w0[i]
		fa[i] = wa[i]*u + c2*(w4[i]-q)
		fb[i] = wb[i] * u
		fc[i] = wc[i] * u
		f4[i] = (c1*w4[i] - c2*q) * u
	}
}

// opVisc4Row runs opVisc4 at each point i < len(h) of its rows, four points
// per instruction where the CPU allows and the scalar body on the rest.
func opVisc4Row(h, sq, sqm, va, vam, v4, v4m []float64, e1, e2, e3 float64) {
	count := len(h)
	if len(sq) < count || len(sqm) < count || len(va) < count || len(vam) < count || len(v4) < count || len(v4m) < count {
		panic("lu: opVisc4Row: a row is shorter than h")
	}
	sq, sqm, va, vam, v4, v4m = sq[:count], sqm[:count], va[:count], vam[:count], v4[:count], v4m[:count]
	groups := 0
	if simd.AVX {
		groups = count / 4
		if groups > 0 {
			opVisc4AVX(&h[0], &sq[0], &sqm[0], &va[0], &vam[0], &v4[0], &v4m[0], e1, e2, e3, groups)
		}
	}
	for i := 4 * groups; i < count; i++ {
		h[i] = e1*(sq[i]-sqm[i]) + e2*(va[i]*va[i]-vam[i]*vam[i]) + e3*(v4[i]-v4m[i])
	}
}

// opRhoRow runs opRho at each point i < len(o) of its rows, four points
// per instruction where the CPU allows and the scalar body on the rest.
func opRhoRow(o, dis, fp, fm, wm, w, wp []float64, t2, d float64) {
	count := len(o)
	if len(dis) < count || len(fp) < count || len(fm) < count || len(wm) < count || len(w) < count || len(wp) < count {
		panic("lu: opRhoRow: a row is shorter than o")
	}
	dis, fp, fm, wm, w, wp = dis[:count], fp[:count], fm[:count], wm[:count], w[:count], wp[:count]
	groups := 0
	if simd.AVX {
		groups = count / 4
		if groups > 0 {
			opRhoAVX(&o[0], &dis[0], &fp[0], &fm[0], &wm[0], &w[0], &wp[0], t2, d, groups)
		}
	}
	for i := 4 * groups; i < count; i++ {
		o[i] -= t2 * (fp[i] - fm[i])
		o[i] += d * (wm[i] - 2.0*w[i] + wp[i])
		o[i] -= dis[i]
	}
}

// opMomRow runs opMom at each point i < len(o) of its rows, four points
// per instruction where the CPU allows and the scalar body on the rest.
func opMomRow(o, dis, fp, fm, vp, v, vm, wm, w, wp []float64, t2, visc, t3c34, d float64) {
	count := len(o)
	if len(dis) < count || len(fp) < count || len(fm) < count || len(vp) < count || len(v) < count || len(vm) < count || len(wm) < count || len(w) < count || len(wp) < count {
		panic("lu: opMomRow: a row is shorter than o")
	}
	dis, fp, fm, vp, v, vm, wm, w, wp = dis[:count], fp[:count], fm[:count], vp[:count], v[:count], vm[:count], wm[:count], w[:count], wp[:count]
	groups := 0
	if simd.AVX {
		groups = count / 4
		if groups > 0 {
			opMomAVX(&o[0], &dis[0], &fp[0], &fm[0], &vp[0], &v[0], &vm[0], &wm[0], &w[0], &wp[0], t2, visc, t3c34, d, groups)
		}
	}
	for i := 4 * groups; i < count; i++ {
		o[i] -= t2 * (fp[i] - fm[i])
		o[i] += t3c34*(visc*(vp[i]-v[i])-visc*(v[i]-vm[i])) + d*(wm[i]-2.0*w[i]+wp[i])
		o[i] -= dis[i]
	}
}

// opEnergyRow runs opEnergy at each point i < len(o) of its rows, four points
// per instruction where the CPU allows and the scalar body on the rest.
func opEnergyRow(o, dis, fp, fm, hp, h, wm, w, wp []float64, t2, t3c34, d float64) {
	count := len(o)
	if len(dis) < count || len(fp) < count || len(fm) < count || len(hp) < count || len(h) < count || len(wm) < count || len(w) < count || len(wp) < count {
		panic("lu: opEnergyRow: a row is shorter than o")
	}
	dis, fp, fm, hp, h, wm, w, wp = dis[:count], fp[:count], fm[:count], hp[:count], h[:count], wm[:count], w[:count], wp[:count]
	groups := 0
	if simd.AVX {
		groups = count / 4
		if groups > 0 {
			opEnergyAVX(&o[0], &dis[0], &fp[0], &fm[0], &hp[0], &h[0], &wm[0], &w[0], &wp[0], t2, t3c34, d, groups)
		}
	}
	for i := 4 * groups; i < count; i++ {
		o[i] -= t2 * (fp[i] - fm[i])
		o[i] += t3c34*(hp[i]-h[i]) + d*(wm[i]-2.0*w[i]+wp[i])
		o[i] -= dis[i]
	}
}

// gatherLane copies lane q of src into dst.
func gatherLane(dst []float64, src [][4]float64, q int) {
	for e := range dst {
		dst[e] = src[e][q]
	}
}

// scatterLane copies src into lane q of dst.
func scatterLane(dst [][4]float64, src []float64, q int) {
	for e := range src {
		dst[e][q] = src[e]
	}
}
