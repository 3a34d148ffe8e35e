// Code generated by lanegen from kernels.go; DO NOT EDIT.

package nscore

import (
	"math"

	"npbgo/internal/simd"
)

// fluxRhoRow runs fluxRho at each point i < len(r) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func fluxRhoRow(r, dis, up, u, um, mvp, mvm []float64, d1, t2 float64) {
	count := len(r)
	if len(dis) < count || len(up) < count || len(u) < count || len(um) < count || len(mvp) < count || len(mvm) < count {
		panic("nscore: fluxRhoRow: a row is shorter than r")
	}
	dis, up, u, um, mvp, mvm = dis[:count], up[:count], u[:count], um[:count], mvp[:count], mvm[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		fluxRhoAVX512(&r[0], &dis[0], &up[0], &u[0], &um[0], &mvp[0], &mvm[0], d1, t2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		fluxRhoAVX(&r[done], &dis[done], &up[done], &u[done], &um[done], &mvp[done], &mvm[done], d1, t2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		r[i] += d1*(up[i]-2.0*u[i]+um[i]) - t2*(mvp[i]-mvm[i])
		r[i] -= dis[i]
	}
}

// fluxMomRow runs fluxMom at each point i < len(r) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func fluxMomRow(r, dis, up, u, um, wp, w, wm, vp, vm []float64, dm, con2, t2 float64) {
	count := len(r)
	if len(dis) < count || len(up) < count || len(u) < count || len(um) < count || len(wp) < count || len(w) < count || len(wm) < count || len(vp) < count || len(vm) < count {
		panic("nscore: fluxMomRow: a row is shorter than r")
	}
	dis, up, u, um, wp, w, wm, vp, vm = dis[:count], up[:count], u[:count], um[:count], wp[:count], w[:count], wm[:count], vp[:count], vm[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		fluxMomAVX512(&r[0], &dis[0], &up[0], &u[0], &um[0], &wp[0], &w[0], &wm[0], &vp[0], &vm[0], dm, con2, t2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		fluxMomAVX(&r[done], &dis[done], &up[done], &u[done], &um[done], &wp[done], &w[done], &wm[done], &vp[done], &vm[done], dm, con2, t2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		r[i] += dm*(up[i]-2.0*u[i]+um[i]) + con2*(wp[i]-2.0*w[i]+wm[i]) - t2*(up[i]*vp[i]-um[i]*vm[i])
		r[i] -= dis[i]
	}
}

// fluxMomAlongRow runs fluxMomAlong at each point i < len(r) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func fluxMomAlongRow(r, dis, up, u, um, vp, v, vm, u4p, u4m, sqp, sqm []float64, dm, con2, con43, t2, c2 float64) {
	count := len(r)
	if len(dis) < count || len(up) < count || len(u) < count || len(um) < count || len(vp) < count || len(v) < count || len(vm) < count || len(u4p) < count || len(u4m) < count || len(sqp) < count || len(sqm) < count {
		panic("nscore: fluxMomAlongRow: a row is shorter than r")
	}
	dis, up, u, um, vp, v, vm, u4p, u4m, sqp, sqm = dis[:count], up[:count], u[:count], um[:count], vp[:count], v[:count], vm[:count], u4p[:count], u4m[:count], sqp[:count], sqm[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		fluxMomAlongAVX512(&r[0], &dis[0], &up[0], &u[0], &um[0], &vp[0], &v[0], &vm[0], &u4p[0], &u4m[0], &sqp[0], &sqm[0], dm, con2, con43, t2, c2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		fluxMomAlongAVX(&r[done], &dis[done], &up[done], &u[done], &um[done], &vp[done], &v[done], &vm[done], &u4p[done], &u4m[done], &sqp[done], &sqm[done], dm, con2, con43, t2, c2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		r[i] += dm*(up[i]-2.0*u[i]+um[i]) + con2*con43*(vp[i]-2.0*v[i]+vm[i]) -
			t2*(up[i]*vp[i]-um[i]*vm[i]+(u4p[i]-sqp[i]-u4m[i]+sqm[i])*c2)
		r[i] -= dis[i]
	}
}

// fluxEnergyHeadRow runs fluxEnergyHead at each point i < len(t) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func fluxEnergyHeadRow(t, up, u, um, qp, q, qm, vp, v, vm []float64, d5, con3, con4 float64) {
	count := len(t)
	if len(up) < count || len(u) < count || len(um) < count || len(qp) < count || len(q) < count || len(qm) < count || len(vp) < count || len(v) < count || len(vm) < count {
		panic("nscore: fluxEnergyHeadRow: a row is shorter than t")
	}
	up, u, um, qp, q, qm, vp, v, vm = up[:count], u[:count], um[:count], qp[:count], q[:count], qm[:count], vp[:count], v[:count], vm[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		fluxEnergyHeadAVX512(&t[0], &up[0], &u[0], &um[0], &qp[0], &q[0], &qm[0], &vp[0], &v[0], &vm[0], d5, con3, con4, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		fluxEnergyHeadAVX(&t[done], &up[done], &u[done], &um[done], &qp[done], &q[done], &qm[done], &vp[done], &v[done], &vm[done], d5, con3, con4, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		t[i] = d5*(up[i]-2.0*u[i]+um[i]) + con3*(qp[i]-2.0*q[i]+qm[i]) + con4*(vp[i]*vp[i]-2.0*v[i]*v[i]+vm[i]*vm[i])
	}
}

// fluxEnergyTailRow runs fluxEnergyTail at each point i < len(r) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func fluxEnergyTailRow(r, dis, t, gp, u, rhoI, gm, hp, hm, vp, vm []float64, con5, t2 float64) {
	count := len(r)
	if len(dis) < count || len(t) < count || len(gp) < count || len(u) < count || len(rhoI) < count || len(gm) < count || len(hp) < count || len(hm) < count || len(vp) < count || len(vm) < count {
		panic("nscore: fluxEnergyTailRow: a row is shorter than r")
	}
	dis, t, gp, u, rhoI, gm, hp, hm, vp, vm = dis[:count], t[:count], gp[:count], u[:count], rhoI[:count], gm[:count], hp[:count], hm[:count], vp[:count], vm[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		fluxEnergyTailAVX512(&r[0], &dis[0], &t[0], &gp[0], &u[0], &rhoI[0], &gm[0], &hp[0], &hm[0], &vp[0], &vm[0], con5, t2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		fluxEnergyTailAVX(&r[done], &dis[done], &t[done], &gp[done], &u[done], &rhoI[done], &gm[done], &hp[done], &hm[done], &vp[done], &vm[done], con5, t2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		r[i] += t[i] + con5*(gp[i]-2.0*u[i]*rhoI[i]+gm[i]) - t2*(hp[i]*vp[i]-hm[i]*vm[i])
		r[i] -= dis[i]
	}
}

// primRow runs prim at each point i < len(rhoI) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func primRow(rhoI, us, vs, ws, sq, qs, u0, u1, u2, u3 []float64) {
	count := len(rhoI)
	if len(us) < count || len(vs) < count || len(ws) < count || len(sq) < count || len(qs) < count || len(u0) < count || len(u1) < count || len(u2) < count || len(u3) < count {
		panic("nscore: primRow: a row is shorter than rhoI")
	}
	us, vs, ws, sq, qs, u0, u1, u2, u3 = us[:count], vs[:count], ws[:count], sq[:count], qs[:count], u0[:count], u1[:count], u2[:count], u3[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		primAVX512(&rhoI[0], &us[0], &vs[0], &ws[0], &sq[0], &qs[0], &u0[0], &u1[0], &u2[0], &u3[0], count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		primAVX(&rhoI[done], &us[done], &vs[done], &ws[done], &sq[done], &qs[done], &u0[done], &u1[done], &u2[done], &u3[done], (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		rhoInv := 1.0 / u0[i]
		rhoI[i] = rhoInv
		us[i] = u1[i] * rhoInv
		vs[i] = u2[i] * rhoInv
		ws[i] = u3[i] * rhoInv
		sq[i] = 0.5 * (u1[i]*u1[i] + u2[i]*u2[i] + u3[i]*u3[i]) * rhoInv
		qs[i] = sq[i] * rhoInv
	}
}

// primEnergyRow runs primEnergy at each point i < len(ge) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func primEnergyRow(ge, he, u4, rhoI, sq []float64, c1, c2 float64) {
	count := len(ge)
	if len(he) < count || len(u4) < count || len(rhoI) < count || len(sq) < count {
		panic("nscore: primEnergyRow: a row is shorter than ge")
	}
	he, u4, rhoI, sq = he[:count], u4[:count], rhoI[:count], sq[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		primEnergyAVX512(&ge[0], &he[0], &u4[0], &rhoI[0], &sq[0], c1, c2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		primEnergyAVX(&ge[done], &he[done], &u4[done], &rhoI[done], &sq[done], c1, c2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		ge[i] = u4[i] * rhoI[i]
		he[i] = c1*u4[i] - c2*sq[i]
	}
}

// soundSpeedRow runs soundSpeed at each point i < len(speed) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func soundSpeedRow(speed, u4, rhoI, sq []float64, c1c2 float64) {
	count := len(speed)
	if len(u4) < count || len(rhoI) < count || len(sq) < count {
		panic("nscore: soundSpeedRow: a row is shorter than speed")
	}
	u4, rhoI, sq = u4[:count], rhoI[:count], sq[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		soundSpeedAVX512(&speed[0], &u4[0], &rhoI[0], &sq[0], c1c2, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		soundSpeedAVX(&speed[done], &u4[done], &rhoI[done], &sq[done], c1c2, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		speed[i] = math.Sqrt(c1c2 * rhoI[i] * (u4[i] - sq[i]))
	}
}

// scaleRow runs scale at each point i < len(r) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func scaleRow(r []float64, dt float64) {
	count := len(r)
	done := 0
	if simd.Width >= 8 && count >= 8 {
		scaleAVX512(&r[0], dt, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		scaleAVX(&r[done], dt, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		r[i] *= dt
	}
}

// dissFirstRow runs dissFirst at each point i < len(d) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func dissFirstRow(d, u, u1, u2 []float64, dssp float64) {
	count := len(d)
	if len(u) < count || len(u1) < count || len(u2) < count {
		panic("nscore: dissFirstRow: a row is shorter than d")
	}
	u, u1, u2 = u[:count], u1[:count], u2[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		dissFirstAVX512(&d[0], &u[0], &u1[0], &u2[0], dssp, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		dissFirstAVX(&d[done], &u[done], &u1[done], &u2[done], dssp, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		d[i] = dssp * (5.0*u[i] - 4.0*u1[i] + u2[i])
	}
}

// dissSecondRow runs dissSecond at each point i < len(d) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func dissSecondRow(d, um1, u, u1, u2 []float64, dssp float64) {
	count := len(d)
	if len(um1) < count || len(u) < count || len(u1) < count || len(u2) < count {
		panic("nscore: dissSecondRow: a row is shorter than d")
	}
	um1, u, u1, u2 = um1[:count], u[:count], u1[:count], u2[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		dissSecondAVX512(&d[0], &um1[0], &u[0], &u1[0], &u2[0], dssp, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		dissSecondAVX(&d[done], &um1[done], &u[done], &u1[done], &u2[done], dssp, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		d[i] = dssp * (-4.0*um1[i] + 6.0*u[i] - 4.0*u1[i] + u2[i])
	}
}

// dissInnerRow runs dissInner at each point i < len(d) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func dissInnerRow(d, um2, um1, u, u1, u2 []float64, dssp float64) {
	count := len(d)
	if len(um2) < count || len(um1) < count || len(u) < count || len(u1) < count || len(u2) < count {
		panic("nscore: dissInnerRow: a row is shorter than d")
	}
	um2, um1, u, u1, u2 = um2[:count], um1[:count], u[:count], u1[:count], u2[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		dissInnerAVX512(&d[0], &um2[0], &um1[0], &u[0], &u1[0], &u2[0], dssp, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		dissInnerAVX(&d[done], &um2[done], &um1[done], &u[done], &u1[done], &u2[done], dssp, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		d[i] = dssp * (um2[i] - 4.0*um1[i] + 6.0*u[i] - 4.0*u1[i] + u2[i])
	}
}

// dissPenultRow runs dissPenult at each point i < len(d) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func dissPenultRow(d, um2, um1, u, u1 []float64, dssp float64) {
	count := len(d)
	if len(um2) < count || len(um1) < count || len(u) < count || len(u1) < count {
		panic("nscore: dissPenultRow: a row is shorter than d")
	}
	um2, um1, u, u1 = um2[:count], um1[:count], u[:count], u1[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		dissPenultAVX512(&d[0], &um2[0], &um1[0], &u[0], &u1[0], dssp, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		dissPenultAVX(&d[done], &um2[done], &um1[done], &u[done], &u1[done], dssp, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		d[i] = dssp * (um2[i] - 4.0*um1[i] + 6.0*u[i] - 4.0*u1[i])
	}
}

// dissLastRow runs dissLast at each point i < len(d) of its rows, eight or four
// points per instruction where the CPU allows and the scalar body on the
// rest.
func dissLastRow(d, um2, um1, u []float64, dssp float64) {
	count := len(d)
	if len(um2) < count || len(um1) < count || len(u) < count {
		panic("nscore: dissLastRow: a row is shorter than d")
	}
	um2, um1, u = um2[:count], um1[:count], u[:count]
	done := 0
	if simd.Width >= 8 && count >= 8 {
		dissLastAVX512(&d[0], &um2[0], &um1[0], &u[0], dssp, count/8)
		done = count &^ 7
	}
	if simd.Width >= 4 && count-done >= 4 {
		dissLastAVX(&d[done], &um2[done], &um1[done], &u[done], dssp, (count-done)/4)
		done = count &^ 3
	}
	for i := uint(done); i < uint(count); i++ {
		d[i] = dssp * (um2[i] - 4.0*um1[i] + 5.0*u[i])
	}
}
