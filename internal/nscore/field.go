// Package nscore holds the parts of the Navier-Stokes pseudo-
// applications that BT, SP and LU share in the Fortran sources (the
// common "header" of set_constants, exact_solution, initialize,
// exact_rhs and compute_rhs): the manufactured exact solution and its
// coefficient table, the derived constants, the field storage, the
// right-hand-side evaluation and the error/residual norms.
package nscore

import (
	"math"

	"npbgo/internal/grid"
	"npbgo/internal/team"
)

// Field owns the flow state of one benchmark instance on an n^3 grid.
// The 5-vector fields store component m fastest, exactly like the
// Fortran u(m,i,j,k) arrays; scalar fields are plain i-fastest cubes.
type Field struct {
	N int

	U, Rhs, Forcing []float64

	Us, Vs, Ws, Qs, Square, RhoI []float64

	// Speed is the local sound speed, allocated only for SP (nil
	// otherwise); ComputeRHS fills it when present.
	Speed []float64

	// Steady-state machinery: the region bodies below are built once by
	// NewField and reused on every ComputeRHS/Add call (a closure
	// literal at the call site would allocate per invocation), keeping
	// the timed loops of BT and SP free of heap allocation (enforced by
	// internal/allocgate). stC/stTm stage the current call's operands.
	stC  *Consts
	stTm *team.Team

	rhsBody   func(id int) // ComputeRHS's region: the seven below, in order
	primBody  func(id int)
	forceBody func(id int)
	xiBody    func(id int)
	etaBody   func(id int)
	zetaBody  func(id int)
	zDissBody func(id int)
	scaleBody func(id int)
	addBody   func(id int)
}

// NewField allocates a zeroed field for an n^3 grid. withSpeed also
// allocates the sound-speed array (needed by SP's diagonalized solver).
func NewField(n int, withSpeed bool) *Field {
	n3 := n * n * n
	f := &Field{
		N:       n,
		U:       make([]float64, 5*n3),
		Rhs:     make([]float64, 5*n3),
		Forcing: make([]float64, 5*n3),
		Us:      make([]float64, n3),
		Vs:      make([]float64, n3),
		Ws:      make([]float64, n3),
		Qs:      make([]float64, n3),
		Square:  make([]float64, n3),
		RhoI:    make([]float64, n3),
	}
	if withSpeed {
		f.Speed = make([]float64, n3)
	}
	f.buildBodies()
	return f
}

// UAt returns the flat offset of U(m,i,j,k) (m fastest).
func (f *Field) UAt(m, i, j, k int) int {
	return grid.Dim4{N1: 5, N2: f.N, N3: f.N, N4: f.N}.At(m, i, j, k)
}

// FAt is UAt for the Rhs/Forcing fields (identical layout).
func (f *Field) FAt(m, i, j, k int) int { return f.UAt(m, i, j, k) }

// SAt returns the flat offset of a scalar field element (i,j,k).
func (f *Field) SAt(i, j, k int) int {
	return grid.Dim3{N1: f.N, N2: f.N, N3: f.N}.At(i, j, k)
}

// Add applies the update u += rhs on the interior (the last step of
// each ADI iteration).
func (f *Field) Add(tm *team.Team) {
	f.stTm = tm
	tm.Run(f.addBody)
}

// ErrorNorm computes the RMS difference between U and the exact
// solution over the whole grid, per component (the Fortran error_norm).
func (f *Field) ErrorNorm(c *Consts) [5]float64 {
	n := f.N
	var rms [5]float64
	var ue [5]float64
	for k := 0; k < n; k++ {
		zeta := float64(k) * c.Dnzm1
		for j := 0; j < n; j++ {
			eta := float64(j) * c.Dnym1
			for i := 0; i < n; i++ {
				xi := float64(i) * c.Dnxm1
				ExactSolution(xi, eta, zeta, &ue)
				off := f.UAt(0, i, j, k)
				for m := 0; m < 5; m++ {
					add := f.U[off+m] - ue[m]
					rms[m] += add * add
				}
			}
		}
	}
	den := float64(n-2) * float64(n-2) * float64(n-2)
	for m := 0; m < 5; m++ {
		rms[m] = math.Sqrt(rms[m] / den)
	}
	return rms
}

// RHSNorm computes the RMS of the Rhs interior, per component.
func (f *Field) RHSNorm() [5]float64 {
	n := f.N
	var rms [5]float64
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				off := f.FAt(0, i, j, k)
				for m := 0; m < 5; m++ {
					rms[m] += f.Rhs[off+m] * f.Rhs[off+m]
				}
			}
		}
	}
	den := float64(n-2) * float64(n-2) * float64(n-2)
	for m := 0; m < 5; m++ {
		rms[m] = math.Sqrt(rms[m] / den)
	}
	return rms
}
