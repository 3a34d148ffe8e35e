package nscore

import "npbgo/internal/team"

//go:generate go run ../lanegen

// ComputeRHS evaluates the right-hand side of the discretized
// Navier-Stokes system into rhs: forcing plus convective and viscous
// flux differences in the three coordinate directions plus fourth-order
// artificial dissipation, finally scaled by dt — a literal translation
// of BT's compute_rhs as one parallel region, with the plane loops split
// over the team. The sums run in component-major rows, eight points per
// instruction (kernels.go), and each element of rhs takes its terms in
// compute_rhs's order, so the result is compute_rhs's to the bit. The
// grid needs n ≥ 7. The region body is prebuilt by NewField (see
// buildBodies), so repeated calls from the timed ADI loop perform no
// heap allocation.
func (f *Field) ComputeRHS(c *Consts, tm *team.Team) {
	f.stC, f.stTm = c, tm
	tm.Run(f.rhsBody)
}

// rhsDir is one direction's share of compute_rhs: its stride, the
// conserved component along it (1 xi, 2 eta, 3 zeta), and its
// constants.
type rhsDir struct {
	s, cv                  int
	d                      [5]float64 // d?m·t?1: second differences of u
	t2                     float64
	con2, con3, con4, con5 float64
}

func rhsDirs(c *Consts, n int) [3]rhsDir {
	return [3]rhsDir{
		{1, 1, [5]float64{c.Dx1tx1, c.Dx2tx1, c.Dx3tx1, c.Dx4tx1, c.Dx5tx1}, c.Tx2, c.Xxcon2, c.Xxcon3, c.Xxcon4, c.Xxcon5},
		{n, 2, [5]float64{c.Dy1ty1, c.Dy2ty1, c.Dy3ty1, c.Dy4ty1, c.Dy5ty1}, c.Ty2, c.Yycon2, c.Yycon3, c.Yycon4, c.Yycon5},
		{n * n, 3, [5]float64{c.Dz1tz1, c.Dz2tz1, c.Dz3tz1, c.Dz4tz1, c.Dz5tz1}, c.Tz2, c.Zzcon2, c.Zzcon3, c.Zzcon4, c.Zzcon5},
	}
}

// fluxPlanes adds direction d's flux differences and dissipation to Rhs
// at every interior point of planes [klo, khi). The rows run over the
// planes' interior rows whole, from point (0,1,klo) to (n-1,n-2,khi-1):
// the boundary points at their ends, and the boundary rows between two
// planes, get values nobody reads, as scaleBody writes the forcing back
// over them.
func (f *Field) fluxPlanes(c *Consts, d *rhsDir, klo, khi int) {
	n := f.N
	if klo >= khi {
		return
	}
	lo, hi := f.SAt(0, 1, klo), f.SAt(0, n-1, khi-1)
	at := func(x []float64, o int) []float64 { return x[lo+o*d.s : hi+o*d.s] }
	vel := [4][]float64{nil, f.Us, f.Vs, f.Ws}
	dis, mv, v := f.dis[lo:hi], f.U[d.cv], vel[d.cv]
	for m, u := range &f.U {
		for k := klo; k < khi; k++ {
			PlaneDissipation(f.dis, u, k, n, d.cv-1, c.Dssp)
		}
		r := f.Rhs[m][lo:hi]
		switch {
		case m == 0:
			fluxRhoRow(r, dis, at(u, 1), at(u, 0), at(u, -1), at(mv, 1), at(mv, -1), d.d[0], d.t2)
		case m == d.cv:
			fluxMomAlongRow(r, dis, at(u, 1), at(u, 0), at(u, -1), at(v, 1), at(v, 0), at(v, -1),
				at(f.U[4], 1), at(f.U[4], -1), at(f.Square, 1), at(f.Square, -1), d.d[m], d.con2, c.Con43, d.t2, c.C2)
		case m < 4:
			w := vel[m]
			fluxMomRow(r, dis, at(u, 1), at(u, 0), at(u, -1), at(w, 1), at(w, 0), at(w, -1), at(v, 1), at(v, -1),
				d.d[m], d.con2, d.t2)
		default:
			et := f.et[lo:hi]
			fluxEnergyHeadRow(et, at(u, 1), at(u, 0), at(u, -1), at(f.Qs, 1), at(f.Qs, 0), at(f.Qs, -1),
				at(v, 1), at(v, 0), at(v, -1), d.d[4], d.con3, d.con4)
			fluxEnergyTailRow(r, dis, et, at(f.ge, 1), at(u, 0), at(f.RhoI, 0), at(f.ge, -1), at(f.he, 1), at(f.he, -1),
				at(v, 1), at(v, -1), d.con5, d.t2)
		}
	}
}

// buildBodies constructs the parallel-region bodies of ComputeRHS and
// Add once. Each is a func(id int); chunk bounds come from the team's
// loop iterator (honoring the configured schedule) and the operands from
// the stC/stTm staging fields, so the callers create no closures.
func (f *Field) buildBodies() {
	n := f.N

	// the loops of compute_rhs as one region, with a barrier only where
	// a loop needs what another worker may have written
	f.rhsBody = func(id int) {
		tm := f.stTm
		f.primBody(id)   // planes of [0,n)
		tm.BarrierID(id) // planes of [1,n-1) split differently, reading k±2
		f.xiBody(id)
		tm.BarrierUnlessStatic(id) // same plane loop: same owner under static
		f.etaBody(id)
		tm.BarrierUnlessStatic(id)
		f.zetaBody(id) // reads U and the primitives at k±2, whole since the first barrier
		tm.BarrierUnlessStatic(id)
		f.scaleBody(id)
	}

	// primitive quantities at every point, and rhs as the forcing
	f.primBody = func(id int) {
		c := f.stC
		for it := f.stTm.Loop(id, 0, n); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				lo, hi := f.SAt(0, 0, k), f.SAt(0, 0, k+1)
				for m, fo := range &f.Forcing {
					copy(f.Rhs[m][lo:hi], fo[lo:hi])
				}
				u0, u1, u2, u3, u4 := f.U[0][lo:hi], f.U[1][lo:hi], f.U[2][lo:hi], f.U[3][lo:hi], f.U[4][lo:hi]
				rhoI, sq := f.RhoI[lo:hi], f.Square[lo:hi]
				primRow(rhoI, f.Us[lo:hi], f.Vs[lo:hi], f.Ws[lo:hi], sq, f.Qs[lo:hi], u0, u1, u2, u3)
				primEnergyRow(f.ge[lo:hi], f.he[lo:hi], u4, rhoI, sq, c.C1, c.C2)
				if f.Speed != nil {
					soundSpeedRow(f.Speed[lo:hi], u4, rhoI, sq, c.C1c2)
				}
			}
		}
	}

	// the fluxes and dissipation of each direction, k planes chunked
	for dir, body := range []*func(int){&f.xiBody, &f.etaBody, &f.zetaBody} {
		*body = func(id int) {
			c := f.stC
			d := rhsDirs(c, n)[dir]
			for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
				f.fluxPlanes(c, &d, it.Lo, it.Hi)
			}
		}
	}

	// rhs scaled by the time step on the interior of each plane; the
	// boundary points the flux rows ran over take the forcing back
	f.scaleBody = func(id int) {
		dt := f.stC.Dt
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				lo, hi := f.SAt(0, 0, k), f.SAt(0, 0, k+1)
				for m, fo := range &f.Forcing {
					r, fo := f.Rhs[m][lo:hi], fo[lo:hi]
					scaleRow(r[n:len(r)-n], dt)
					for p := n; p < len(r)-n; p += n {
						r[p], r[p+n-1] = fo[p], fo[p+n-1]
					}
					copy(r[:n], fo)
					copy(r[len(r)-n:], fo[len(fo)-n:])
				}
			}
		}
	}

	// flow-variable update u += rhs on the interior rows
	f.addBody = func(id int) {
		for it := f.stTm.Loop(id, 1, n-1); it.Next(); {
			for k := it.Lo; k < it.Hi; k++ {
				for m, u := range &f.U {
					for j := 1; j < n-1; j++ {
						lo, hi := f.SAt(1, j, k), f.SAt(n-1, j, k)
						u, r := u[lo:hi], f.Rhs[m][lo:hi]
						for p, v := range r {
							u[p] += v
						}
					}
				}
			}
		}
	}
}
