// Package grid provides the array containers used throughout the suite.
//
// The paper's first experiment (§3) compares two Fortran→Java translation
// options for multi-dimensional arrays: preserving the dimensions (arrays
// of arrays) versus linearizing into a single vector with explicit index
// arithmetic. The linearized form won decisively, so the translated
// benchmarks use it throughout; this package provides both forms so the
// comparison itself (Table "layout study") can be reproduced.
//
// Linearized arrays follow the Fortran convention of the NPB sources: the
// first index varies fastest (column-major), i.e. for an (n1,n2,n3) array
// element (i1,i2,i3) lives at i1 + n1*(i2 + n2*i3). Keeping the NPB index
// order makes the translated loop nests read like the original code and,
// as in Fortran, makes the innermost loop stride-1.
package grid

// Vec is a linearized array of float64 with no dimension bookkeeping;
// the benchmarks size and index it themselves, exactly as the paper's
// translated Java code does with flat double[] arrays.
type Vec = []float64

// Dim3 carries the extents of a 3-D array and computes linear offsets.
type Dim3 struct{ N1, N2, N3 int }

// Len returns the number of elements.
func (d Dim3) Len() int { return d.N1 * d.N2 * d.N3 }

// At returns the linear offset of (i1,i2,i3), first index fastest.
func (d Dim3) At(i1, i2, i3 int) int { return i1 + d.N1*(i2+d.N2*i3) }

// Dim4 carries the extents of a 4-D array and computes linear offsets.
type Dim4 struct{ N1, N2, N3, N4 int }

// Len returns the number of elements.
func (d Dim4) Len() int { return d.N1 * d.N2 * d.N3 * d.N4 }

// At returns the linear offset of (i1,i2,i3,i4), first index fastest.
func (d Dim4) At(i1, i2, i3, i4 int) int {
	return i1 + d.N1*(i2+d.N2*(i3+d.N3*i4))
}

// Dim5 carries the extents of a 5-D array (BT's 5x5 block fields) and
// computes linear offsets.
type Dim5 struct{ N1, N2, N3, N4, N5 int }

// Len returns the number of elements.
func (d Dim5) Len() int { return d.N1 * d.N2 * d.N3 * d.N4 * d.N5 }

// At returns the linear offset of (i1,...,i5), first index fastest.
func (d Dim5) At(i1, i2, i3, i4, i5 int) int {
	return i1 + d.N1*(i2+d.N2*(i3+d.N3*(i4+d.N4*i5)))
}

// Vec5 views the five components stored at v[off:off+5] — one point of
// an m-fastest 5-vector field — as a fixed-size array: one bounds check
// buys all five, and constant indices into the result need none.
func Vec5(v Vec, off int) *[5]float64 { return (*[5]float64)(v[off : off+5]) }

// Alloc3 allocates a zeroed linearized 3-D array with the given extents.
func Alloc3(d Dim3) Vec { return make(Vec, d.Len()) }

// Alloc4 allocates a zeroed linearized 4-D array with the given extents.
func Alloc4(d Dim4) Vec { return make(Vec, d.Len()) }

// Alloc5 allocates a zeroed linearized 5-D array with the given extents.
func Alloc5(d Dim5) Vec { return make(Vec, d.Len()) }

// Nested3 is the dimension-preserving translation option: a slice of
// slices of slices, indexed [i3][i2][i1] so that i1 remains the
// contiguous, fastest-varying index as in the linearized form.
type Nested3 [][][]float64

// Nest3 carves a Nested3 with extents d out of backing, its rows in the
// linearized order, so backing holds the array in the linearized layout
// (the denser of the two layouts the paper considered; the indirection
// per dimension is the cost being measured).
func Nest3(backing []float64, d Dim3) Nested3 {
	out := make(Nested3, d.N3)
	for i3 := range out {
		plane := make([][]float64, d.N2)
		for i2 := range plane {
			off := d.At(0, i2, i3)
			plane[i2] = backing[off : off+d.N1 : off+d.N1]
		}
		out[i3] = plane
	}
	return out
}

// Nested4 is the dimension-preserving 4-D variant, indexed [i4][i3][i2][i1].
type Nested4 [][][][]float64

// Nest4 is Nest3 for a Nested4.
func Nest4(backing []float64, d Dim4) Nested4 {
	d3 := Dim3{d.N1, d.N2, d.N3}
	out := make(Nested4, d.N4)
	for i4 := range out {
		out[i4] = Nest3(backing[i4*d3.Len():], d3)
	}
	return out
}

// Nested5 is the dimension-preserving 5-D variant (3-D arrays of 5x5
// blocks), indexed [i5][i4][i3][i2][i1].
type Nested5 [][][][][]float64

// Nest5 is Nest3 for a Nested5.
func Nest5(backing []float64, d Dim5) Nested5 {
	d4 := Dim4{d.N1, d.N2, d.N3, d.N4}
	out := make(Nested5, d.N5)
	for i5 := range out {
		out[i5] = Nest4(backing[i5*d4.Len():], d4)
	}
	return out
}
