package nscore

import (
	"math"

	"npbgo/internal/grid"
	"npbgo/internal/team"
)

// ComputeRHS evaluates the right-hand side of the discretized
// Navier-Stokes system into rhs: forcing plus convective and viscous
// flux differences in the three coordinate directions plus fourth-order
// artificial dissipation, finally scaled by dt — a literal translation
// of BT's compute_rhs as one parallel region, with the plane loops split
// over the team. The region body is prebuilt by NewField (see
// buildBodies), so repeated calls from the timed ADI loop perform no
// heap allocation.
func (f *Field) ComputeRHS(c *Consts, tm *team.Team) {
	f.stC, f.stTm = c, tm
	tm.Run(f.rhsBody)
}

// buildBodies constructs the parallel-region bodies of ComputeRHS and
// Add once. Each is a func(id int); chunk bounds come from the team's
// loop iterator (honoring the configured schedule) and the operands from
// the stC/stTm staging fields, so the callers create no closures.
func (f *Field) buildBodies() {
	n := f.N

	// the seven loops of compute_rhs as one region, with a
	// barrier only where a loop needs what another worker may have written
	f.rhsBody = func(id int) {
		tm := f.stTm
		f.primBody(id)   // planes of [0,n)
		f.forceBody(id)  // flat shares of rhs; needs nothing of primBody's
		tm.BarrierID(id) // planes of [1,n-1) split differently from both
		f.xiBody(id)
		tm.BarrierUnlessStatic(id) // same plane loop: same owner under static
		f.etaBody(id)
		tm.BarrierUnlessStatic(id)
		f.zetaBody(id)   // reads RhoI..Qs at k±1, whole since the first barrier
		tm.BarrierID(id) // zDiss is split over j and updates every plane
		f.zDissBody(id)
		tm.BarrierID(id) // scale is split over planes again
		f.scaleBody(id)
	}

	// primitive quantities at every point
	f.primBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 0, n); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 0; j < n; j++ {
					for i := 0; i < n; i++ {
						off := f.UAt(0, i, j, k)
						s := f.SAt(i, j, k)
						rhoInv := 1.0 / f.U[off]
						f.RhoI[s] = rhoInv
						f.Us[s] = f.U[off+1] * rhoInv
						f.Vs[s] = f.U[off+2] * rhoInv
						f.Ws[s] = f.U[off+3] * rhoInv
						f.Square[s] = 0.5 * (f.U[off+1]*f.U[off+1] +
							f.U[off+2]*f.U[off+2] + f.U[off+3]*f.U[off+3]) * rhoInv
						f.Qs[s] = f.Square[s] * rhoInv
						if f.Speed != nil {
							f.Speed[s] = math.Sqrt(c.C1c2 * rhoInv * (f.U[off+4] - f.Square[s]))
						}
					}
				}
			}
		}
	}

	// rhs starts as the forcing term
	f.forceBody = func(id int) {
		for it := f.stTm.Loop(id, 0, len(f.Rhs)); it.Next(); {
			copy(f.Rhs[it.Lo:it.Hi], f.Forcing[it.Lo:it.Hi])
		}
	}

	// xi-direction fluxes and dissipation, k planes chunked
	f.xiBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						s := f.SAt(i, j, k)
						sp := f.SAt(i+1, j, k)
						sm := f.SAt(i-1, j, k)
						uc := f.UAt(0, i, j, k)
						up := f.UAt(0, i+1, j, k)
						um := f.UAt(0, i-1, j, k)
						r := f.FAt(0, i, j, k)
						uijk := f.Us[s]
						up1 := f.Us[sp]
						um1 := f.Us[sm]

						f.Rhs[r+0] += c.Dx1tx1*(f.U[up]-2.0*f.U[uc]+f.U[um]) -
							c.Tx2*(f.U[up+1]-f.U[um+1])
						f.Rhs[r+1] += c.Dx2tx1*(f.U[up+1]-2.0*f.U[uc+1]+f.U[um+1]) +
							c.Xxcon2*c.Con43*(up1-2.0*uijk+um1) -
							c.Tx2*(f.U[up+1]*up1-f.U[um+1]*um1+
								(f.U[up+4]-f.Square[sp]-f.U[um+4]+f.Square[sm])*c.C2)
						f.Rhs[r+2] += c.Dx3tx1*(f.U[up+2]-2.0*f.U[uc+2]+f.U[um+2]) +
							c.Xxcon2*(f.Vs[sp]-2.0*f.Vs[s]+f.Vs[sm]) -
							c.Tx2*(f.U[up+2]*up1-f.U[um+2]*um1)
						f.Rhs[r+3] += c.Dx4tx1*(f.U[up+3]-2.0*f.U[uc+3]+f.U[um+3]) +
							c.Xxcon2*(f.Ws[sp]-2.0*f.Ws[s]+f.Ws[sm]) -
							c.Tx2*(f.U[up+3]*up1-f.U[um+3]*um1)
						f.Rhs[r+4] += c.Dx5tx1*(f.U[up+4]-2.0*f.U[uc+4]+f.U[um+4]) +
							c.Xxcon3*(f.Qs[sp]-2.0*f.Qs[s]+f.Qs[sm]) +
							c.Xxcon4*(up1*up1-2.0*uijk*uijk+um1*um1) +
							c.Xxcon5*(f.U[up+4]*f.RhoI[sp]-2.0*f.U[uc+4]*f.RhoI[s]+f.U[um+4]*f.RhoI[sm]) -
							c.Tx2*((c.C1*f.U[up+4]-c.C2*f.Square[sp])*up1-
								(c.C1*f.U[um+4]-c.C2*f.Square[sm])*um1)
					}
				}
				// xi-direction fourth-order dissipation for this plane.
				for j := 1; j < n-1; j++ {
					f.dissipU(c, f.UAt(0, 0, j, k), 5)
				}
			}
		}
	}

	// eta-direction fluxes and dissipation, k planes chunked
	f.etaBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						s := f.SAt(i, j, k)
						sp := f.SAt(i, j+1, k)
						sm := f.SAt(i, j-1, k)
						uc := f.UAt(0, i, j, k)
						up := f.UAt(0, i, j+1, k)
						um := f.UAt(0, i, j-1, k)
						r := f.FAt(0, i, j, k)
						vijk := f.Vs[s]
						vp1 := f.Vs[sp]
						vm1 := f.Vs[sm]

						f.Rhs[r+0] += c.Dy1ty1*(f.U[up]-2.0*f.U[uc]+f.U[um]) -
							c.Ty2*(f.U[up+2]-f.U[um+2])
						f.Rhs[r+1] += c.Dy2ty1*(f.U[up+1]-2.0*f.U[uc+1]+f.U[um+1]) +
							c.Yycon2*(f.Us[sp]-2.0*f.Us[s]+f.Us[sm]) -
							c.Ty2*(f.U[up+1]*vp1-f.U[um+1]*vm1)
						f.Rhs[r+2] += c.Dy3ty1*(f.U[up+2]-2.0*f.U[uc+2]+f.U[um+2]) +
							c.Yycon2*c.Con43*(vp1-2.0*vijk+vm1) -
							c.Ty2*(f.U[up+2]*vp1-f.U[um+2]*vm1+
								(f.U[up+4]-f.Square[sp]-f.U[um+4]+f.Square[sm])*c.C2)
						f.Rhs[r+3] += c.Dy4ty1*(f.U[up+3]-2.0*f.U[uc+3]+f.U[um+3]) +
							c.Yycon2*(f.Ws[sp]-2.0*f.Ws[s]+f.Ws[sm]) -
							c.Ty2*(f.U[up+3]*vp1-f.U[um+3]*vm1)
						f.Rhs[r+4] += c.Dy5ty1*(f.U[up+4]-2.0*f.U[uc+4]+f.U[um+4]) +
							c.Yycon3*(f.Qs[sp]-2.0*f.Qs[s]+f.Qs[sm]) +
							c.Yycon4*(vp1*vp1-2.0*vijk*vijk+vm1*vm1) +
							c.Yycon5*(f.U[up+4]*f.RhoI[sp]-2.0*f.U[uc+4]*f.RhoI[s]+f.U[um+4]*f.RhoI[sm]) -
							c.Ty2*((c.C1*f.U[up+4]-c.C2*f.Square[sp])*vp1-
								(c.C1*f.U[um+4]-c.C2*f.Square[sm])*vm1)
					}
				}
				for i := 1; i < n-1; i++ {
					f.dissipU(c, f.UAt(0, i, 0, k), 5*n)
				}
			}
		}
	}

	// zeta-direction fluxes, k planes chunked
	f.zetaBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						s := f.SAt(i, j, k)
						sp := f.SAt(i, j, k+1)
						sm := f.SAt(i, j, k-1)
						uc := f.UAt(0, i, j, k)
						up := f.UAt(0, i, j, k+1)
						um := f.UAt(0, i, j, k-1)
						r := f.FAt(0, i, j, k)
						wijk := f.Ws[s]
						wp1 := f.Ws[sp]
						wm1 := f.Ws[sm]

						f.Rhs[r+0] += c.Dz1tz1*(f.U[up]-2.0*f.U[uc]+f.U[um]) -
							c.Tz2*(f.U[up+3]-f.U[um+3])
						f.Rhs[r+1] += c.Dz2tz1*(f.U[up+1]-2.0*f.U[uc+1]+f.U[um+1]) +
							c.Zzcon2*(f.Us[sp]-2.0*f.Us[s]+f.Us[sm]) -
							c.Tz2*(f.U[up+1]*wp1-f.U[um+1]*wm1)
						f.Rhs[r+2] += c.Dz3tz1*(f.U[up+2]-2.0*f.U[uc+2]+f.U[um+2]) +
							c.Zzcon2*(f.Vs[sp]-2.0*f.Vs[s]+f.Vs[sm]) -
							c.Tz2*(f.U[up+2]*wp1-f.U[um+2]*wm1)
						f.Rhs[r+3] += c.Dz4tz1*(f.U[up+3]-2.0*f.U[uc+3]+f.U[um+3]) +
							c.Zzcon2*c.Con43*(wp1-2.0*wijk+wm1) -
							c.Tz2*(f.U[up+3]*wp1-f.U[um+3]*wm1+
								(f.U[up+4]-f.Square[sp]-f.U[um+4]+f.Square[sm])*c.C2)
						f.Rhs[r+4] += c.Dz5tz1*(f.U[up+4]-2.0*f.U[uc+4]+f.U[um+4]) +
							c.Zzcon3*(f.Qs[sp]-2.0*f.Qs[s]+f.Qs[sm]) +
							c.Zzcon4*(wp1*wp1-2.0*wijk*wijk+wm1*wm1) +
							c.Zzcon5*(f.U[up+4]*f.RhoI[sp]-2.0*f.U[uc+4]*f.RhoI[s]+f.U[um+4]*f.RhoI[sm]) -
							c.Tz2*((c.C1*f.U[up+4]-c.C2*f.Square[sp])*wp1-
								(c.C1*f.U[um+4]-c.C2*f.Square[sm])*wm1)
					}
				}
			}
		}
	}

	// zeta dissipation must see the whole k extent, so it is
	// split over j instead
	f.zDissBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for j := it.Lo; j < it.Hi; j++ {
				for i := 1; i < n-1; i++ {
					f.dissipU(c, f.UAt(0, i, j, 0), 5*n*n)
				}
			}
		}
	}

	// scale by the time step
	f.scaleBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						r := f.FAt(0, i, j, k)
						for m := 0; m < 5; m++ {
							f.Rhs[r+m] *= c.Dt
						}
					}
				}
			}
		}
	}

	// flow-variable update u += rhs on the interior
	f.addBody = func(id int) {
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for j := 1; j < n-1; j++ {
					for i := 1; i < n-1; i++ {
						uo := f.UAt(0, i, j, k)
						for m := 0; m < 5; m++ {
							f.U[uo+m] += f.Rhs[uo+m]
						}
					}
				}
			}
		}
	}
}

// dissipU subtracts the boundary-adjusted fourth-difference dissipation
// of u from rhs along one grid line: cell l of the line has its
// 5-vector at flat offset base+l*stride in both U and Rhs (the m-fastest
// layout makes every direction affine in l). Callers already run inside
// a parallel region.
func (f *Field) dissipU(c *Consts, base, stride int) {
	n := f.N
	dssp := c.Dssp
	u := func(l int) *[5]float64 { return grid.Vec5(f.U, base+l*stride) }
	r := func(l int) *[5]float64 { return grid.Vec5(f.Rhs, base+l*stride) }
	r1, r2 := r(1), r(2)
	u1, u2, u3, u4 := u(1), u(2), u(3), u(4)
	for m := 0; m < 5; m++ {
		r1[m] -= dssp * (5.0*u1[m] - 4.0*u2[m] + u3[m])
		r2[m] -= dssp * (-4.0*u1[m] + 6.0*u2[m] - 4.0*u3[m] + u4[m])
	}
	for l := 3; l <= n-4; l++ {
		rl := r(l)
		um2, um1, u0, up1, up2 := u(l-2), u(l-1), u(l), u(l+1), u(l+2)
		for m := 0; m < 5; m++ {
			rl[m] -= dssp * (um2[m] - 4.0*um1[m] + 6.0*u0[m] - 4.0*up1[m] + up2[m])
		}
	}
	rn3, rn2 := r(n-3), r(n-2)
	un5, un4, un3, un2 := u(n-5), u(n-4), u(n-3), u(n-2)
	for m := 0; m < 5; m++ {
		rn3[m] -= dssp * (un5[m] - 4.0*un4[m] + 6.0*un3[m] - 4.0*un2[m])
		rn2[m] -= dssp * (un4[m] - 4.0*un3[m] + 5.0*un2[m])
	}
}
