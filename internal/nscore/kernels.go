package nscore

import "math"

// The row kernels of compute_rhs. Each is the update of one grid point,
// written over *[1]float64 elements of component-major rows (one n^3
// plane per quantity, indexed like the scalar fields), with a point's
// neighbours along the direction passed as rows shifted by the stride:
// p for the point itself, p/m for p±stride. lanegen compiles each into
// kernels that run eight (AVX-512) or four (AVX) consecutive points per
// instruction, bit for bit the scalar body (lanes.go, lanes_amd64.s), and the expressions
// are compute_rhs's, term for term, so every sum rounds as it does
// there. A term that needs more than twelve rows goes through a scratch
// row: a stored and reloaded double keeps its bits.

// fluxRho adds the continuity terms of one direction to r: the second
// difference of rho and the central difference of the momentum along
// the direction (mvp, mvm), then subtracts the dissipation term dis.
//
//lanegen:rows
func fluxRho(r, dis, up, u, um, mvp, mvm *[1]float64, d1, t2 float64) {
	r[0] += d1*(up[0]-2.0*u[0]+um[0]) - t2*(mvp[0]-mvm[0])
	r[0] -= dis[0]
}

// fluxMom adds the terms of a momentum component across the direction:
// u is the component, w its velocity and v the velocity along the
// direction.
//
//lanegen:rows
func fluxMom(r, dis, up, u, um, wp, w, wm, vp, vm *[1]float64, dm, con2, t2 float64) {
	r[0] += dm*(up[0]-2.0*u[0]+um[0]) + con2*(wp[0]-2.0*w[0]+wm[0]) - t2*(up[0]*vp[0]-um[0]*vm[0])
	r[0] -= dis[0]
}

// fluxMomAlong adds the terms of the momentum component along the
// direction, whose flux carries the pressure: u4 is the energy and sq
// the kinetic energy per volume.
//
//lanegen:rows
func fluxMomAlong(r, dis, up, u, um, vp, v, vm, u4p, u4m, sqp, sqm *[1]float64, dm, con2, con43, t2, c2 float64) {
	r[0] += dm*(up[0]-2.0*u[0]+um[0]) + con2*con43*(vp[0]-2.0*v[0]+vm[0]) -
		t2*(up[0]*vp[0]-um[0]*vm[0]+(u4p[0]-sqp[0]-u4m[0]+sqm[0])*c2)
	r[0] -= dis[0]
}

// fluxEnergyHead is the first three terms of the energy update, the
// second differences of the energy, of q and of the squared velocity
// along the direction, into the scratch row t.
//
//lanegen:rows
func fluxEnergyHead(t, up, u, um, qp, q, qm, vp, v, vm *[1]float64, d5, con3, con4 float64) {
	t[0] = d5*(up[0]-2.0*u[0]+um[0]) + con3*(qp[0]-2.0*q[0]+qm[0]) + con4*(vp[0]*vp[0]-2.0*v[0]*v[0]+vm[0]*vm[0])
}

// fluxEnergyTail adds t and the rest of the energy update to r: the
// second difference of u4·rho⁻¹ (gp, gm at the neighbours) and the
// central difference of the energy flux, whose factor c1·u4 − c2·sq is
// hp, hm at the neighbours.
//
//lanegen:rows
func fluxEnergyTail(r, dis, t, gp, u, rhoI, gm, hp, hm, vp, vm *[1]float64, con5, t2 float64) {
	r[0] += t[0] + con5*(gp[0]-2.0*u[0]*rhoI[0]+gm[0]) - t2*(hp[0]*vp[0]-hm[0]*vm[0])
	r[0] -= dis[0]
}

// prim sets the primitive quantities of a point from its density and
// momentum: rho⁻¹, the three velocities, the kinetic energy per volume
// sq and q = sq·rho⁻¹.
//
//lanegen:rows
func prim(rhoI, us, vs, ws, sq, qs, u0, u1, u2, u3 *[1]float64) {
	rhoInv := 1.0 / u0[0]
	rhoI[0] = rhoInv
	us[0] = u1[0] * rhoInv
	vs[0] = u2[0] * rhoInv
	ws[0] = u3[0] * rhoInv
	sq[0] = 0.5 * (u1[0]*u1[0] + u2[0]*u2[0] + u3[0]*u3[0]) * rhoInv
	qs[0] = sq[0] * rhoInv
}

// primEnergy sets the two energy-flux factors of a point, ge = u4·rho⁻¹
// and he = c1·u4 − c2·sq.
//
//lanegen:rows
func primEnergy(ge, he, u4, rhoI, sq *[1]float64, c1, c2 float64) {
	ge[0] = u4[0] * rhoI[0]
	he[0] = c1*u4[0] - c2*sq[0]
}

// soundSpeed sets the local speed of sound of a point (SP only).
//
//lanegen:rows
func soundSpeed(speed, u4, rhoI, sq *[1]float64, c1c2 float64) {
	speed[0] = math.Sqrt(c1c2 * rhoI[0] * (u4[0] - sq[0]))
}

// scale multiplies a point of the right-hand side by the time step:
// the last loop of compute_rhs.
//
//lanegen:rows
func scale(r *[1]float64, dt float64) {
	r[0] *= dt
}

// The fourth-order dissipation term dssp·δ⁴u of a point, one kernel per
// stencil: the first, second, inner, penultimate and last interior
// points of a grid line take the boundary-adjusted differences of
// compute_rhs. u1, u2 are the neighbours one and two strides up, um1,
// um2 down.

//lanegen:rows
func dissFirst(d, u, u1, u2 *[1]float64, dssp float64) {
	d[0] = dssp * (5.0*u[0] - 4.0*u1[0] + u2[0])
}

//lanegen:rows
func dissSecond(d, um1, u, u1, u2 *[1]float64, dssp float64) {
	d[0] = dssp * (-4.0*um1[0] + 6.0*u[0] - 4.0*u1[0] + u2[0])
}

//lanegen:rows
func dissInner(d, um2, um1, u, u1, u2 *[1]float64, dssp float64) {
	d[0] = dssp * (um2[0] - 4.0*um1[0] + 6.0*u[0] - 4.0*u1[0] + u2[0])
}

//lanegen:rows
func dissPenult(d, um2, um1, u, u1 *[1]float64, dssp float64) {
	d[0] = dssp * (um2[0] - 4.0*um1[0] + 6.0*u[0] - 4.0*u1[0])
}

//lanegen:rows
func dissLast(d, um2, um1, u *[1]float64, dssp float64) {
	d[0] = dssp * (um2[0] - 4.0*um1[0] + 5.0*u[0])
}

// dissipation writes into d[p], for each p in [lo, hi), the
// fourth-order dissipation term of the component-major row u at p
// along stride s, where every p of the range is the l-th point of its
// grid line of n (1 ≤ l ≤ n-2, n ≥ 7).
func dissipation(d, u []float64, lo, hi, s, l, n int, dssp float64) {
	at := func(o int) []float64 { return u[lo+o*s : hi+o*s] }
	switch l {
	case 1:
		dissFirstRow(d[lo:hi], at(0), at(1), at(2), dssp)
	case 2:
		dissSecondRow(d[lo:hi], at(-1), at(0), at(1), at(2), dssp)
	case n - 3:
		dissPenultRow(d[lo:hi], at(-2), at(-1), at(0), at(1), dssp)
	case n - 2:
		dissLastRow(d[lo:hi], at(-2), at(-1), at(0), dssp)
	default:
		dissInnerRow(d[lo:hi], at(-2), at(-1), at(0), at(1), at(2), dssp)
	}
}

// PlaneDissipation writes into d the fourth-order dissipation term of
// the n^3 row u in direction dir (0 xi, 1 eta, 2 zeta) at every interior
// point of plane k, over the plane's interior rows whole, from point
// (0,1,k) to (n-1,n-2,k): the boundary points at the ends of the rows
// get values nobody reads. Along eta and zeta the stencil is the same
// along a row; along xi it changes with i, so the inner stencil runs
// over the rows and the first two and last two interior points of each
// row are then written again with their own. It is the dissipation of
// compute_rhs and of LU's rhs and erhs, whose expressions are the same.
func PlaneDissipation(d, u []float64, k, n, dir int, dssp float64) {
	row := func(j int) int { return n * (j + n*k) }
	lo, hi := row(1), row(n-1)
	switch dir {
	case 0:
		dissInnerRow(d[lo:hi], u[lo-2:hi-2], u[lo-1:hi-1], u[lo:hi], u[lo+1:hi+1], u[lo+2:hi+2], dssp)
		at := func(p int) *[1]float64 { return (*[1]float64)(u[p:]) }
		for j := 1; j < n-1; j++ {
			p := row(j)
			dissFirst((*[1]float64)(d[p+1:]), at(p+1), at(p+2), at(p+3), dssp)
			dissSecond((*[1]float64)(d[p+2:]), at(p+1), at(p+2), at(p+3), at(p+4), dssp)
			p += n - 5
			dissPenult((*[1]float64)(d[p+2:]), at(p), at(p+1), at(p+2), at(p+3), dssp)
			dissLast((*[1]float64)(d[p+3:]), at(p+1), at(p+2), at(p+3), dssp)
		}
	case 1:
		for _, rows := range [5][2]int{{1, 1}, {2, 2}, {3, n - 4}, {n - 3, n - 3}, {n - 2, n - 2}} {
			dissipation(d, u, row(rows[0]), row(rows[1]+1), n, rows[0], n, dssp)
		}
	default:
		dissipation(d, u, lo, hi, n*n, k, n, dssp)
	}
}
