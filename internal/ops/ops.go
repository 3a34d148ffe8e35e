// Package ops implements the five basic CFD operations of the paper's
// §3, used there to compare Fortran→Java translation options and to form
// a performance baseline for the full benchmarks (Table 1):
//
//  1. loading/storing array elements (Assignment, run for 10 iterations
//     in the paper's table);
//  2. filtering an array with a first-order star stencil (as in the BT,
//     SP and LU flux computations);
//  3. the same with a second-order star stencil;
//  4. multiplication of a 3-D array of 5x5 matrices by a 3-D array of
//     5-D vectors (a routine CFD operation — it is the inner kernel of
//     BT's block solves);
//  5. a reduction sum over a 4-D array.
//
// Every operation exists in a linearized-array form (the translation
// option the paper adopted) and, for the layout study, in a
// dimension-preserving nested-slice form, plus a multithreaded form that
// splits the outermost grid dimension over a team. Kernel runs each as
// an entry of the paper's Tables 0 and 1 (internal/suite's Paper list).
package ops

import (
	"slices"

	"npbgo/internal/grid"
	"npbgo/internal/team"
)

// DefaultDim is the grid used throughout the paper's Table 1:
// 81 x 81 x 100 points.
var DefaultDim = grid.Dim3{N1: 81, N2: 81, N3: 100}

// Workload owns the preallocated fields the operations run on, so timed
// sections never allocate.
type Workload struct {
	D grid.Dim3

	// Scalar fields for assignment and stencils.
	A, B grid.Vec

	// Block fields for the 5x5 matrix-vector product: M is a 3-D array
	// of 5x5 matrices (Dim5 {5,5,n1,n2,n3}), V and W are 3-D arrays of
	// 5-vectors (Dim4 {5,n1,n2,n3}).
	DM   grid.Dim5
	DV   grid.Dim4
	M    grid.Vec
	V, W grid.Vec

	// 4-D field for the reduction sum (Dim4 {5,n1,n2,n3}).
	R grid.Vec

	// Nested variants of the fields for the layout study, and the
	// backing arrays of the two outputs, AN and WN, which hold them in
	// the linearized layout.
	AN, BN   grid.Nested3
	MN       grid.Nested5
	VN, WN   grid.Nested4
	RN       grid.Nested4
	ANf, WNf grid.Vec

	// tm is the team of the running Parallel call, which its region
	// body reads.
	tm      *team.Team
	regions [numOps]func(id int)
}

// Field groups of a Workload; newWorkload allocates their union.
const (
	scalarFields = 1 << iota // A and B: the assignment and the stencils
	blockFields              // M, V and W: the matrix-vector product
	sumFields                // R: the reduction sum
	nestedFields             // the nested copy of every group allocated
)

// NewWorkload allocates a workload on grid d and fills the inputs with a
// deterministic, non-trivial pattern.
func NewWorkload(d grid.Dim3) *Workload {
	return newWorkload(d, scalarFields|blockFields|sumFields|nestedFields)
}

// newWorkload allocates and fills the field groups in f only, and
// builds the region bodies of the Parallel forms once.
func newWorkload(d grid.Dim3, f int) *Workload {
	w := &Workload{
		D:  d,
		DM: grid.Dim5{N1: 5, N2: 5, N3: d.N1, N4: d.N2, N5: d.N3},
		DV: grid.Dim4{N1: 5, N2: d.N1, N3: d.N2, N4: d.N3},
	}
	nested := f&nestedFields != 0
	if f&scalarFields != 0 {
		w.A, w.B = grid.Alloc3(d), grid.Alloc3(d)
		for i := range w.B {
			w.B[i] = 1.0 + float64(i%17)*0.0625
		}
		if nested {
			w.ANf = grid.Alloc3(d)
			w.AN, w.BN = grid.Nest3(w.ANf, d), grid.Nest3(slices.Clone(w.B), d)
		}
	}
	if f&blockFields != 0 {
		w.M, w.V, w.W = grid.Alloc5(w.DM), grid.Alloc4(w.DV), grid.Alloc4(w.DV)
		for i := range w.M {
			w.M[i] = 0.5 + float64(i%23)*0.03125
		}
		for i := range w.V {
			w.V[i] = 1.0 + float64(i%13)*0.0625
		}
		if nested {
			w.WNf = grid.Alloc4(w.DV)
			w.MN, w.VN, w.WN = grid.Nest5(slices.Clone(w.M), w.DM), grid.Nest4(slices.Clone(w.V), w.DV), grid.Nest4(w.WNf, w.DV)
		}
	}
	if f&sumFields != 0 {
		w.R = grid.Alloc4(w.DV)
		for i := range w.R {
			w.R[i] = float64(i%31) * 0.03125
		}
		if nested {
			w.RN = grid.Nest4(slices.Clone(w.R), w.DV)
		}
	}
	w.regions = [numOps]func(int){Assign: w.assignRegion, Stencil1: w.firstOrderRegion,
		Stencil2: w.secondOrderRegion, MatVec5: w.matVecRegion, Sum: w.sumRegion}
	return w
}

// Stencil coefficients: a star stencil with the classic NPB dissipation
// flavour. cen is the centre weight, adj the +-1 weight, adj2 the +-2
// weight (second-order only).
const (
	cen  = 1.0 - 6.0*0.1
	adj  = 0.1
	adj2 = 0.025
	cen2 = 1.0 - 6.0*adj - 6.0*adj2
)

// Assignment copies B into A element-wise (the load/store baseline).
func (w *Workload) Assignment() {
	copyLoop(w.A, w.B)
}

// copyLoop is an explicit element loop rather than copy() so that the Go
// code performs the same per-element load/store work the translated
// Java/Fortran assignment loops perform.
func copyLoop(dst, src grid.Vec) {
	for i := 0; i < len(src); i++ {
		dst[i] = src[i]
	}
}

// AssignmentNested is Assignment on the dimension-preserving layout.
func (w *Workload) AssignmentNested() {
	d := w.D
	for i3 := 0; i3 < d.N3; i3++ {
		p2, q2 := w.AN[i3], w.BN[i3]
		for i2 := 0; i2 < d.N2; i2++ {
			p1, q1 := p2[i2], q2[i2]
			for i1 := 0; i1 < d.N1; i1++ {
				p1[i1] = q1[i1]
			}
		}
	}
}

// Parallel runs operation o's parallel form on tm: the outer planes
// split over the team, or for Sum R's static blocks, one partial sum
// each, which tm.PartialSum adds in block order, so the sum has the
// same bits under every schedule of one team size. The region bodies
// are built once, with the Workload, so a call allocates nothing.
func (w *Workload) Parallel(o Op, tm *team.Team) {
	w.tm = tm
	tm.Run(w.regions[o])
}

// assignRegion is Assignment's parallel form.
func (w *Workload) assignRegion(id int) {
	plane := w.D.N1 * w.D.N2
	for it := w.tm.Loop(id, 0, w.D.N3); it.Next(); {
		copyLoop(w.A[it.Lo*plane:it.Hi*plane], w.B[it.Lo*plane:it.Hi*plane])
	}
}

// FirstOrder applies the first-order star stencil to B, writing A on the
// interior points (a 7-point kernel as in the BT/SP/LU dissipation
// terms).
func (w *Workload) FirstOrder() {
	w.firstOrderRange(1, w.D.N3-1)
}

func (w *Workload) firstOrderRange(k0, k1 int) {
	d := w.D
	n1, n2 := d.N1, d.N2
	s1, s2, s3 := 1, n1, n1*n2
	a, b := w.A, w.B
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < n2-1; i2++ {
			base := d.At(1, i2, i3)
			for i1 := 1; i1 < n1-1; i1++ {
				c := base + i1 - 1
				a[c] = cen*b[c] +
					adj*(b[c-s1]+b[c+s1]+b[c-s2]+b[c+s2]+b[c-s3]+b[c+s3])
			}
		}
	}
}

// FirstOrderNested is FirstOrder on the nested layout.
func (w *Workload) FirstOrderNested() {
	d := w.D
	a, b := w.AN, w.BN
	for i3 := 1; i3 < d.N3-1; i3++ {
		for i2 := 1; i2 < d.N2-1; i2++ {
			for i1 := 1; i1 < d.N1-1; i1++ {
				a[i3][i2][i1] = cen*b[i3][i2][i1] +
					adj*(b[i3][i2][i1-1]+b[i3][i2][i1+1]+
						b[i3][i2-1][i1]+b[i3][i2+1][i1]+
						b[i3-1][i2][i1]+b[i3+1][i2][i1])
			}
		}
	}
}

// firstOrderRegion is FirstOrder's parallel form.
func (w *Workload) firstOrderRegion(id int) {
	for it := w.tm.Loop(id, 1, w.D.N3-1); it.Next(); {
		w.firstOrderRange(it.Lo, it.Hi)
	}
}

// SecondOrder applies the second-order star stencil (13-point kernel,
// +-2 in every direction, as in the fourth-difference dissipation of the
// pseudo-applications).
func (w *Workload) SecondOrder() {
	w.secondOrderRange(2, w.D.N3-2)
}

func (w *Workload) secondOrderRange(k0, k1 int) {
	d := w.D
	n1, n2 := d.N1, d.N2
	s1, s2, s3 := 1, n1, n1*n2
	a, b := w.A, w.B
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 2; i2 < n2-2; i2++ {
			base := d.At(2, i2, i3)
			for i1 := 2; i1 < n1-2; i1++ {
				c := base + i1 - 2
				a[c] = cen2*b[c] +
					adj*(b[c-s1]+b[c+s1]+b[c-s2]+b[c+s2]+b[c-s3]+b[c+s3]) +
					adj2*(b[c-2*s1]+b[c+2*s1]+b[c-2*s2]+b[c+2*s2]+b[c-2*s3]+b[c+2*s3])
			}
		}
	}
}

// SecondOrderNested is SecondOrder on the nested layout.
func (w *Workload) SecondOrderNested() {
	d := w.D
	a, b := w.AN, w.BN
	for i3 := 2; i3 < d.N3-2; i3++ {
		for i2 := 2; i2 < d.N2-2; i2++ {
			for i1 := 2; i1 < d.N1-2; i1++ {
				a[i3][i2][i1] = cen2*b[i3][i2][i1] +
					adj*(b[i3][i2][i1-1]+b[i3][i2][i1+1]+
						b[i3][i2-1][i1]+b[i3][i2+1][i1]+
						b[i3-1][i2][i1]+b[i3+1][i2][i1]) +
					adj2*(b[i3][i2][i1-2]+b[i3][i2][i1+2]+
						b[i3][i2-2][i1]+b[i3][i2+2][i1]+
						b[i3-2][i2][i1]+b[i3+2][i2][i1])
			}
		}
	}
}

// secondOrderRegion is SecondOrder's parallel form.
func (w *Workload) secondOrderRegion(id int) {
	for it := w.tm.Loop(id, 2, w.D.N3-2); it.Next(); {
		w.secondOrderRange(it.Lo, it.Hi)
	}
}

// MatVec computes W = M*V at every grid point: a 5x5 matrix times a
// 5-vector per cell.
func (w *Workload) MatVec() {
	w.matVecRange(0, w.D.N3)
}

func (w *Workload) matVecRange(k0, k1 int) {
	d := w.D
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				mo := w.DM.At(0, 0, i1, i2, i3)
				vo := w.DV.At(0, i1, i2, i3)
				m := w.M[mo : mo+25]
				v := w.V[vo : vo+5]
				out := w.W[vo : vo+5]
				// Column-major 5x5: element (r,c) at m[r+5c].
				for r := 0; r < 5; r++ {
					out[r] = m[r]*v[0] + m[r+5]*v[1] + m[r+10]*v[2] +
						m[r+15]*v[3] + m[r+20]*v[4]
				}
			}
		}
	}
}

// MatVecNested is MatVec on the dimension-preserving layout: every
// block and vector access walks the slice-of-slices chain.
func (w *Workload) MatVecNested() {
	d := w.D
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				m := w.MN[i3][i2][i1]
				v := w.VN[i3][i2][i1]
				out := w.WN[i3][i2][i1]
				for r := 0; r < 5; r++ {
					out[r] = m[0][r]*v[0] + m[1][r]*v[1] + m[2][r]*v[2] +
						m[3][r]*v[3] + m[4][r]*v[4]
				}
			}
		}
	}
}

// matVecRegion is MatVec's parallel form.
func (w *Workload) matVecRegion(id int) {
	for it := w.tm.Loop(id, 0, w.D.N3); it.Next(); {
		w.matVecRange(it.Lo, it.Hi)
	}
}

// ReduceSum computes the sum of all elements of the 4-D field R.
func (w *Workload) ReduceSum() float64 {
	return sumRange(w.R, 0, len(w.R))
}

func sumRange(r grid.Vec, lo, hi int) float64 {
	s := 0.0
	for i := lo; i < hi; i++ {
		s += r[i]
	}
	return s
}

// ReduceSumNested is ReduceSum on the dimension-preserving layout.
func (w *Workload) ReduceSumNested() float64 {
	d := w.D
	s := 0.0
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				row := w.RN[i3][i2][i1]
				for c := 0; c < 5; c++ {
					s += row[c]
				}
			}
		}
	}
	return s
}

// sumRegion is ReduceSum's parallel form.
func (w *Workload) sumRegion(id int) {
	for it := w.tm.ReduceBlocks(id, 0, len(w.R)); it.Next(); {
		*w.tm.Partial(it.Chunk()) = sumRange(w.R, it.Lo, it.Hi)
	}
}

// Flop counts for one invocation of each operation, derived from the
// kernel formulas. They replace the paper's perfex instruction counters
// as the normalization for rate (Mflop/s) reporting: the paper's
// Java/Fortran analysis leaned on the ratio of executed instructions,
// which portable Go cannot read, so the analytic operation counts are
// used instead (documented substitution in DESIGN.md).

// FlopsFirstOrder returns the floating-point operations of one
// FirstOrder invocation: 7 adds + 2 multiplies per interior point.
func (w *Workload) FlopsFirstOrder() int64 {
	d := w.D
	interior := int64(d.N1-2) * int64(d.N2-2) * int64(d.N3-2)
	return interior * 9
}

// FlopsSecondOrder returns the flops of one SecondOrder invocation:
// 13 adds + 3 multiplies per interior point.
func (w *Workload) FlopsSecondOrder() int64 {
	d := w.D
	interior := int64(d.N1-4) * int64(d.N2-4) * int64(d.N3-4)
	return interior * 16
}

// FlopsMatVec returns the flops of one MatVec invocation: 5 rows x
// (5 multiplies + 4 adds) per grid point.
func (w *Workload) FlopsMatVec() int64 {
	d := w.D
	return int64(d.Len()) * 45
}

// FlopsReduceSum returns the flops of one ReduceSum invocation.
func (w *Workload) FlopsReduceSum() int64 { return int64(len(w.R)) }
