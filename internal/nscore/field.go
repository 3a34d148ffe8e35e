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
// Every field is component-major: the 5-vector fields U, Rhs and
// Forcing hold one n^3 row per component, and each row, like each
// scalar field, is indexed by point (SAt, i fastest). U[m][p] is the
// Fortran u(m,i,j,k) at p = SAt(i,j,k).
type Field struct {
	N int

	U, Rhs, Forcing [5][]float64

	Us, Vs, Ws, Qs, Square, RhoI []float64

	// Speed is the local sound speed, allocated only for SP (nil
	// otherwise); ComputeRHS fills it when present.
	Speed []float64

	// ComputeRHS's scratch rows: dis one component's dissipation term,
	// et the energy flux's first terms, and ge, he two factors of the
	// energy flux at each point, u4·rho⁻¹ and c1·u4 − c2·sq.
	dis, et, ge, he []float64

	// Steady-state machinery: the region bodies below are built once by
	// NewField and reused on every ComputeRHS/Add call (a closure
	// literal at the call site would allocate per invocation), keeping
	// the timed loops of BT and SP free of heap allocation (enforced by
	// internal/allocgate). stC/stTm stage the current call's operands.
	stC  *Consts
	stTm *team.Team

	rhsBody   func(id int) // ComputeRHS's region: the five below, in order
	primBody  func(id int)
	xiBody    func(id int)
	etaBody   func(id int)
	zetaBody  func(id int)
	scaleBody func(id int)
	addBody   func(id int)
}

// NewField allocates a zeroed field for an n^3 grid, with ComputeRHS's
// scratch. withSpeed also allocates the sound-speed array (needed by
// SP's diagonalized solver).
func NewField(n int, withSpeed bool) *Field {
	n3 := n * n * n
	f := &Field{N: n}
	rows := Rows(fieldRows, n3)
	copy(f.U[:], rows[0:5])
	copy(f.Rhs[:], rows[5:10])
	copy(f.Forcing[:], rows[10:15])
	f.Us, f.Vs, f.Ws, f.Qs, f.Square, f.RhoI = rows[15], rows[16], rows[17], rows[18], rows[19], rows[20]
	f.dis, f.et, f.ge, f.he = rows[21], rows[22], rows[23], rows[24]
	if withSpeed {
		f.Speed = make([]float64, n3)
	}
	f.buildBodies()
	return f
}

// Rows allocates count rows of n3 doubles, zeroed, from one array. The
// rows start an odd number of 64-byte cache lines apart modulo 4 KiB,
// so the same point of up to 64 rows falls in different cache sets: a
// row kernel reads and writes a dozen rows at one index, and rows
// allocated one by one start page-aligned, where those dozen accesses
// would compete for one set and alias in the store buffer.
func Rows(count, n3 int) [][]float64 {
	stride := rowStride(n3)
	all := make([]float64, count*stride)
	rows := make([][]float64, count)
	for r := range rows {
		rows[r] = all[r*stride : r*stride+n3 : r*stride+n3]
	}
	return rows
}

// rowStride is the distance between the starts of two of Rows' rows:
// n3 rounded up to whole cache lines, an odd number of them.
func rowStride(n3 int) int {
	stride := (n3 + 7) &^ 7
	if stride/8%2 == 0 {
		stride += 8
	}
	return stride
}

// RowsBytes is the size of the array Rows(count, n3) allocates.
func RowsBytes(count, n3 int) uint64 { return uint64(count*rowStride(n3)) * 8 }

// FieldBytes is the size of the arrays NewField(n, withSpeed)
// allocates: twenty-five rows of n^3 (U, Rhs and Forcing, five each,
// the six primitive fields and ComputeRHS's four scratch rows), plus
// Speed.
func FieldBytes(n int, withSpeed bool) uint64 {
	n3 := n * n * n
	b := RowsBytes(fieldRows, n3)
	if withSpeed {
		b += uint64(n3) * 8
	}
	return b
}

// fieldRows is the number of n^3 rows a Field takes from Rows.
const fieldRows = 25

// Components returns the five component rows of x, each cut to the
// length of the first, so that an index checked against one row needs
// no check against the other four. It panics if a row is shorter than
// the first.
func Components(x *[5][]float64) (x0, x1, x2, x3, x4 []float64) {
	n := len(x[0])
	if len(x[1]) < n || len(x[2]) < n || len(x[3]) < n || len(x[4]) < n {
		panic("nscore: a component row is shorter than the first")
	}
	return x[0], x[1][:n], x[2][:n], x[3][:n], x[4][:n]
}

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
				p := f.SAt(i, j, k)
				for m, u := range &f.U {
					add := u[p] - ue[m]
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
				p := f.SAt(i, j, k)
				for m, r := range &f.Rhs {
					rms[m] += r[p] * r[p]
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
