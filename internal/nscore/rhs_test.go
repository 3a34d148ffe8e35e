package nscore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/grid"
	"npbgo/internal/rowcheck"
	"npbgo/internal/team"
)

// TestComputeRHSMatchesOracle holds ComputeRHS to the point-form
// compute_rhs it replaced (oracleRHS) on grids of 8 to 14 points a
// side, whose spans of n(n-2) points and rows of n leave every length
// from 0 to 7 after the 8-point groups, at team sizes below and above
// the interior planes, under every schedule, at every simd.Width the host has, on
// a perturbed flow field and twice over (the second call on the state
// the first and Add left). Every element of every row of u and rhs and
// of the primitive fields, the boundary included, must agree bit for
// bit.
func TestComputeRHSMatchesOracle(t *testing.T) {
	for _, n := range []int{8, 9, 10, 11, 12, 13, 14} {
		c := SetConstants(n, 0.01)
		start := NewField(n, true)
		start.Initialize(&c)
		start.ExactRHS(&c)
		rng := rand.New(rand.NewSource(int64(n)))
		for p := range start.U[0] {
			for _, u := range &start.U {
				u[p] *= 1 + 0.01*(rng.Float64()-0.5)
			}
		}
		want := NewField(n, true)
		copyState(want, start)
		oracleRHSOn(want, &c)
		serial := team.New(1)
		want.Add(serial)
		serial.Close()
		oracleRHSOn(want, &c)
		rowcheck.Modes(t, func(width int) {
			for _, threads := range []int{1, 2, 3, 7, 13} {
				for _, sched := range []team.Schedule{team.Static, team.Dynamic} {
					f := NewField(n, true)
					copyState(f, start)
					tm := team.New(threads, team.WithSchedule(sched))
					f.ComputeRHS(&c, tm)
					f.Add(tm)
					f.ComputeRHS(&c, tm)
					tm.Close()
					got := namedRows(f)
					for name, w := range namedRows(want) {
						for e := range w {
							if math.Float64bits(got[name][e]) != math.Float64bits(w[e]) {
								t.Fatalf("n=%d width %d %d threads %s: %s[%d] = %v, oracle %v",
									n, width, threads, sched, name, e, got[name][e], w[e])
							}
						}
					}
				}
			}
		})
	}
}

// rowKernels pairs each generated row wrapper with its scalar body.
var rowKernels = [][2]any{
	{fluxRhoRow, fluxRho}, {fluxMomRow, fluxMom}, {fluxMomAlongRow, fluxMomAlong},
	{fluxEnergyHeadRow, fluxEnergyHead}, {fluxEnergyTailRow, fluxEnergyTail},
	{primRow, prim}, {primEnergyRow, primEnergy}, {soundSpeedRow, soundSpeed}, {scaleRow, scale},
	{dissFirstRow, dissFirst}, {dissSecondRow, dissSecond}, {dissInnerRow, dissInner},
	{dissPenultRow, dissPenult}, {dissLastRow, dissLast},
}

// TestRowKernelsMatchScalar holds each generated row kernel to its
// scalar body, bit for bit, at every row length from 0 to 17, on random
// rows with zeros of both signs among them (rowcheck.Kernels).
func TestRowKernelsMatchScalar(t *testing.T) {
	rowcheck.Kernels(t, rowKernels)
}

// copyState copies the state ComputeRHS starts from, U and Forcing,
// from src to dst.
func copyState(dst, src *Field) {
	for m := range dst.U {
		copy(dst.U[m], src.U[m])
		copy(dst.Forcing[m], src.Forcing[m])
	}
}

// namedRows names every row of f: the components of U and Rhs and the
// scalar fields.
func namedRows(f *Field) map[string][]float64 {
	rows := map[string][]float64{
		"rho_i": f.RhoI, "us": f.Us, "vs": f.Vs, "ws": f.Ws, "qs": f.Qs, "square": f.Square, "speed": f.Speed,
	}
	for m := range f.U {
		rows[fmt.Sprintf("u%d", m)] = f.U[m]
		rows[fmt.Sprintf("rhs%d", m)] = f.Rhs[m]
	}
	return rows
}

// pointField is a Field's state in the m-fastest layout the oracle was
// written for: U, Rhs and Forcing keep a point's five components
// together, exactly like the Fortran u(m,i,j,k) arrays.
type pointField struct {
	N                                   int
	U, Rhs, Forcing                     []float64
	Us, Vs, Ws, Qs, Square, RhoI, Speed []float64
}

// UAt returns the flat offset of U(m,i,j,k) (m fastest).
func (f *pointField) UAt(m, i, j, k int) int {
	return grid.Dim4{N1: 5, N2: f.N, N3: f.N, N4: f.N}.At(m, i, j, k)
}

// FAt is UAt for the Rhs/Forcing fields (identical layout).
func (f *pointField) FAt(m, i, j, k int) int { return f.UAt(m, i, j, k) }

// SAt returns the flat offset of a scalar field element (i,j,k).
func (f *pointField) SAt(i, j, k int) int {
	return grid.Dim3{N1: f.N, N2: f.N, N3: f.N}.At(i, j, k)
}

// pointMajor returns the component rows x as one m-fastest array.
func pointMajor(x [5][]float64) []float64 {
	out := make([]float64, 5*len(x[0]))
	for m, row := range x {
		for p, v := range row {
			out[5*p+m] = v
		}
	}
	return out
}

// oracleRHSOn runs oracleRHS on f's state in the m-fastest layout and
// leaves its right-hand side in f.Rhs and its primitives in f.
func oracleRHSOn(f *Field, c *Consts) {
	pf := &pointField{N: f.N, U: pointMajor(f.U), Rhs: pointMajor(f.Rhs), Forcing: pointMajor(f.Forcing),
		Us: f.Us, Vs: f.Vs, Ws: f.Ws, Qs: f.Qs, Square: f.Square, RhoI: f.RhoI, Speed: f.Speed}
	oracleRHS(pf, c)
	for m, row := range f.Rhs {
		for p := range row {
			row[p] = pf.Rhs[5*p+m]
		}
	}
}

// oracleRHS is ComputeRHS as it ran on the m-fastest fields, point by
// point and serially: compute_rhs's loops in order, the dissipation a
// grid line at a time (oracleDissip).
func oracleRHS(f *pointField, c *Consts) {
	n := f.N
	// primitive quantities at every point
	for k := 0; k < n; k++ {
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
	// rhs starts as the forcing term
	copy(f.Rhs, f.Forcing)
	// xi-direction fluxes and dissipation
	for k := 1; k < n-1; k++ {
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
			oracleDissip(f.Rhs, f.U, n, c.Dssp, f.UAt(0, 0, j, k), 5)
		}
	}
	// eta-direction fluxes and dissipation
	for k := 1; k < n-1; k++ {
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
			oracleDissip(f.Rhs, f.U, n, c.Dssp, f.UAt(0, i, 0, k), 5*n)
		}
	}
	// zeta-direction fluxes
	for k := 1; k < n-1; k++ {
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
	// zeta-direction dissipation, line by line
	for j := 1; j < n-1; j++ {
		for i := 1; i < n-1; i++ {
			oracleDissip(f.Rhs, f.U, n, c.Dssp, f.UAt(0, i, j, 0), 5*n*n)
		}
	}
	// scale by the time step
	for k := 1; k < n-1; k++ {
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

// oracleDissip subtracts the boundary-adjusted fourth-difference dissipation
// of w from out along one grid line of n points: point l of the line
// has its 5-vector at flat offset base+l*stride in both (the m-fastest
// layout makes every direction affine in l).
func oracleDissip(out, w []float64, n int, dssp float64, base, stride int) {
	u := func(l int) *[5]float64 { return grid.Vec5(w, base+l*stride) }
	r := func(l int) *[5]float64 { return grid.Vec5(out, base+l*stride) }
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
