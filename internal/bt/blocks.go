package bt

// 5x5 blocks are column-major [25]float64 arrays (element (row, col) at
// row + 5*col), matching the Fortran lhs(m,n,...) layout. These four
// primitives are the inner kernels of the block-tridiagonal Thomas
// algorithm (solve_subs.f): an unpivoted Gauss-Jordan that
// simultaneously transforms the coupling block and right-hand side, a
// 5x5 matrix-matrix multiply-subtract, and a matrix-vector
// multiply-subtract. Pivoting is unnecessary because the blocks are
// strongly diagonally dominant by construction (I + dt * Jacobian terms).
//
// Like solve_subs.f they are written out in full over fixed-size
// arrays: every index is a constant, so no bounds check or loop test
// is left. The statements are those of the loop form in the order the
// loops run them (pivot p = 0..4; within it the pivot row scaled, then
// rows q != p eliminated in increasing q), so the results are
// bit-identical to it — bt_test.go keeps the loops as the reference.

// binvcrhs performs in-place Gauss-Jordan elimination on blk, applying
// the same row operations to the coupling block c and the 5-vector r:
// on return c = blk0^-1 * c and r = blk0^-1 * r.
//
// Hot path: block Thomas forward elimination, once per cell.
//
//lanegen:lanes
func binvcrhs(blk, c *[25]float64, r *[5]float64) {
	pivot := 1.0 / blk[0]
	blk[5] *= pivot
	blk[10] *= pivot
	blk[15] *= pivot
	blk[20] *= pivot
	c[0] *= pivot
	c[5] *= pivot
	c[10] *= pivot
	c[15] *= pivot
	c[20] *= pivot
	r[0] *= pivot
	coeff := blk[1]
	blk[6] -= coeff * blk[5]
	blk[11] -= coeff * blk[10]
	blk[16] -= coeff * blk[15]
	blk[21] -= coeff * blk[20]
	c[1] -= coeff * c[0]
	c[6] -= coeff * c[5]
	c[11] -= coeff * c[10]
	c[16] -= coeff * c[15]
	c[21] -= coeff * c[20]
	r[1] -= coeff * r[0]
	coeff = blk[2]
	blk[7] -= coeff * blk[5]
	blk[12] -= coeff * blk[10]
	blk[17] -= coeff * blk[15]
	blk[22] -= coeff * blk[20]
	c[2] -= coeff * c[0]
	c[7] -= coeff * c[5]
	c[12] -= coeff * c[10]
	c[17] -= coeff * c[15]
	c[22] -= coeff * c[20]
	r[2] -= coeff * r[0]
	coeff = blk[3]
	blk[8] -= coeff * blk[5]
	blk[13] -= coeff * blk[10]
	blk[18] -= coeff * blk[15]
	blk[23] -= coeff * blk[20]
	c[3] -= coeff * c[0]
	c[8] -= coeff * c[5]
	c[13] -= coeff * c[10]
	c[18] -= coeff * c[15]
	c[23] -= coeff * c[20]
	r[3] -= coeff * r[0]
	coeff = blk[4]
	blk[9] -= coeff * blk[5]
	blk[14] -= coeff * blk[10]
	blk[19] -= coeff * blk[15]
	blk[24] -= coeff * blk[20]
	c[4] -= coeff * c[0]
	c[9] -= coeff * c[5]
	c[14] -= coeff * c[10]
	c[19] -= coeff * c[15]
	c[24] -= coeff * c[20]
	r[4] -= coeff * r[0]
	pivot = 1.0 / blk[6]
	blk[11] *= pivot
	blk[16] *= pivot
	blk[21] *= pivot
	c[1] *= pivot
	c[6] *= pivot
	c[11] *= pivot
	c[16] *= pivot
	c[21] *= pivot
	r[1] *= pivot
	coeff = blk[5]
	blk[10] -= coeff * blk[11]
	blk[15] -= coeff * blk[16]
	blk[20] -= coeff * blk[21]
	c[0] -= coeff * c[1]
	c[5] -= coeff * c[6]
	c[10] -= coeff * c[11]
	c[15] -= coeff * c[16]
	c[20] -= coeff * c[21]
	r[0] -= coeff * r[1]
	coeff = blk[7]
	blk[12] -= coeff * blk[11]
	blk[17] -= coeff * blk[16]
	blk[22] -= coeff * blk[21]
	c[2] -= coeff * c[1]
	c[7] -= coeff * c[6]
	c[12] -= coeff * c[11]
	c[17] -= coeff * c[16]
	c[22] -= coeff * c[21]
	r[2] -= coeff * r[1]
	coeff = blk[8]
	blk[13] -= coeff * blk[11]
	blk[18] -= coeff * blk[16]
	blk[23] -= coeff * blk[21]
	c[3] -= coeff * c[1]
	c[8] -= coeff * c[6]
	c[13] -= coeff * c[11]
	c[18] -= coeff * c[16]
	c[23] -= coeff * c[21]
	r[3] -= coeff * r[1]
	coeff = blk[9]
	blk[14] -= coeff * blk[11]
	blk[19] -= coeff * blk[16]
	blk[24] -= coeff * blk[21]
	c[4] -= coeff * c[1]
	c[9] -= coeff * c[6]
	c[14] -= coeff * c[11]
	c[19] -= coeff * c[16]
	c[24] -= coeff * c[21]
	r[4] -= coeff * r[1]
	pivot = 1.0 / blk[12]
	blk[17] *= pivot
	blk[22] *= pivot
	c[2] *= pivot
	c[7] *= pivot
	c[12] *= pivot
	c[17] *= pivot
	c[22] *= pivot
	r[2] *= pivot
	coeff = blk[10]
	blk[15] -= coeff * blk[17]
	blk[20] -= coeff * blk[22]
	c[0] -= coeff * c[2]
	c[5] -= coeff * c[7]
	c[10] -= coeff * c[12]
	c[15] -= coeff * c[17]
	c[20] -= coeff * c[22]
	r[0] -= coeff * r[2]
	coeff = blk[11]
	blk[16] -= coeff * blk[17]
	blk[21] -= coeff * blk[22]
	c[1] -= coeff * c[2]
	c[6] -= coeff * c[7]
	c[11] -= coeff * c[12]
	c[16] -= coeff * c[17]
	c[21] -= coeff * c[22]
	r[1] -= coeff * r[2]
	coeff = blk[13]
	blk[18] -= coeff * blk[17]
	blk[23] -= coeff * blk[22]
	c[3] -= coeff * c[2]
	c[8] -= coeff * c[7]
	c[13] -= coeff * c[12]
	c[18] -= coeff * c[17]
	c[23] -= coeff * c[22]
	r[3] -= coeff * r[2]
	coeff = blk[14]
	blk[19] -= coeff * blk[17]
	blk[24] -= coeff * blk[22]
	c[4] -= coeff * c[2]
	c[9] -= coeff * c[7]
	c[14] -= coeff * c[12]
	c[19] -= coeff * c[17]
	c[24] -= coeff * c[22]
	r[4] -= coeff * r[2]
	pivot = 1.0 / blk[18]
	blk[23] *= pivot
	c[3] *= pivot
	c[8] *= pivot
	c[13] *= pivot
	c[18] *= pivot
	c[23] *= pivot
	r[3] *= pivot
	coeff = blk[15]
	blk[20] -= coeff * blk[23]
	c[0] -= coeff * c[3]
	c[5] -= coeff * c[8]
	c[10] -= coeff * c[13]
	c[15] -= coeff * c[18]
	c[20] -= coeff * c[23]
	r[0] -= coeff * r[3]
	coeff = blk[16]
	blk[21] -= coeff * blk[23]
	c[1] -= coeff * c[3]
	c[6] -= coeff * c[8]
	c[11] -= coeff * c[13]
	c[16] -= coeff * c[18]
	c[21] -= coeff * c[23]
	r[1] -= coeff * r[3]
	coeff = blk[17]
	blk[22] -= coeff * blk[23]
	c[2] -= coeff * c[3]
	c[7] -= coeff * c[8]
	c[12] -= coeff * c[13]
	c[17] -= coeff * c[18]
	c[22] -= coeff * c[23]
	r[2] -= coeff * r[3]
	coeff = blk[19]
	blk[24] -= coeff * blk[23]
	c[4] -= coeff * c[3]
	c[9] -= coeff * c[8]
	c[14] -= coeff * c[13]
	c[19] -= coeff * c[18]
	c[24] -= coeff * c[23]
	r[4] -= coeff * r[3]
	pivot = 1.0 / blk[24]
	c[4] *= pivot
	c[9] *= pivot
	c[14] *= pivot
	c[19] *= pivot
	c[24] *= pivot
	r[4] *= pivot
	coeff = blk[20]
	c[0] -= coeff * c[4]
	c[5] -= coeff * c[9]
	c[10] -= coeff * c[14]
	c[15] -= coeff * c[19]
	c[20] -= coeff * c[24]
	r[0] -= coeff * r[4]
	coeff = blk[21]
	c[1] -= coeff * c[4]
	c[6] -= coeff * c[9]
	c[11] -= coeff * c[14]
	c[16] -= coeff * c[19]
	c[21] -= coeff * c[24]
	r[1] -= coeff * r[4]
	coeff = blk[22]
	c[2] -= coeff * c[4]
	c[7] -= coeff * c[9]
	c[12] -= coeff * c[14]
	c[17] -= coeff * c[19]
	c[22] -= coeff * c[24]
	r[2] -= coeff * r[4]
	coeff = blk[23]
	c[3] -= coeff * c[4]
	c[8] -= coeff * c[9]
	c[13] -= coeff * c[14]
	c[18] -= coeff * c[19]
	c[23] -= coeff * c[24]
	r[3] -= coeff * r[4]
}

// binvrhs is binvcrhs without a coupling block (used at the last cell of
// each line): r = blk^-1 * r.
//
// Hot path: last cell of every line.
//
//lanegen:lanes
func binvrhs(blk *[25]float64, r *[5]float64) {
	pivot := 1.0 / blk[0]
	blk[5] *= pivot
	blk[10] *= pivot
	blk[15] *= pivot
	blk[20] *= pivot
	r[0] *= pivot
	coeff := blk[1]
	blk[6] -= coeff * blk[5]
	blk[11] -= coeff * blk[10]
	blk[16] -= coeff * blk[15]
	blk[21] -= coeff * blk[20]
	r[1] -= coeff * r[0]
	coeff = blk[2]
	blk[7] -= coeff * blk[5]
	blk[12] -= coeff * blk[10]
	blk[17] -= coeff * blk[15]
	blk[22] -= coeff * blk[20]
	r[2] -= coeff * r[0]
	coeff = blk[3]
	blk[8] -= coeff * blk[5]
	blk[13] -= coeff * blk[10]
	blk[18] -= coeff * blk[15]
	blk[23] -= coeff * blk[20]
	r[3] -= coeff * r[0]
	coeff = blk[4]
	blk[9] -= coeff * blk[5]
	blk[14] -= coeff * blk[10]
	blk[19] -= coeff * blk[15]
	blk[24] -= coeff * blk[20]
	r[4] -= coeff * r[0]
	pivot = 1.0 / blk[6]
	blk[11] *= pivot
	blk[16] *= pivot
	blk[21] *= pivot
	r[1] *= pivot
	coeff = blk[5]
	blk[10] -= coeff * blk[11]
	blk[15] -= coeff * blk[16]
	blk[20] -= coeff * blk[21]
	r[0] -= coeff * r[1]
	coeff = blk[7]
	blk[12] -= coeff * blk[11]
	blk[17] -= coeff * blk[16]
	blk[22] -= coeff * blk[21]
	r[2] -= coeff * r[1]
	coeff = blk[8]
	blk[13] -= coeff * blk[11]
	blk[18] -= coeff * blk[16]
	blk[23] -= coeff * blk[21]
	r[3] -= coeff * r[1]
	coeff = blk[9]
	blk[14] -= coeff * blk[11]
	blk[19] -= coeff * blk[16]
	blk[24] -= coeff * blk[21]
	r[4] -= coeff * r[1]
	pivot = 1.0 / blk[12]
	blk[17] *= pivot
	blk[22] *= pivot
	r[2] *= pivot
	coeff = blk[10]
	blk[15] -= coeff * blk[17]
	blk[20] -= coeff * blk[22]
	r[0] -= coeff * r[2]
	coeff = blk[11]
	blk[16] -= coeff * blk[17]
	blk[21] -= coeff * blk[22]
	r[1] -= coeff * r[2]
	coeff = blk[13]
	blk[18] -= coeff * blk[17]
	blk[23] -= coeff * blk[22]
	r[3] -= coeff * r[2]
	coeff = blk[14]
	blk[19] -= coeff * blk[17]
	blk[24] -= coeff * blk[22]
	r[4] -= coeff * r[2]
	pivot = 1.0 / blk[18]
	blk[23] *= pivot
	r[3] *= pivot
	coeff = blk[15]
	blk[20] -= coeff * blk[23]
	r[0] -= coeff * r[3]
	coeff = blk[16]
	blk[21] -= coeff * blk[23]
	r[1] -= coeff * r[3]
	coeff = blk[17]
	blk[22] -= coeff * blk[23]
	r[2] -= coeff * r[3]
	coeff = blk[19]
	blk[24] -= coeff * blk[23]
	r[4] -= coeff * r[3]
	pivot = 1.0 / blk[24]
	r[4] *= pivot
	coeff = blk[20]
	r[0] -= coeff * r[4]
	coeff = blk[21]
	r[1] -= coeff * r[4]
	coeff = blk[22]
	r[2] -= coeff * r[4]
	coeff = blk[23]
	r[3] -= coeff * r[4]
}

// matvecSub computes r2 -= a * r1 for a 5x5 block a and 5-vectors.
//
// Hot path: block Thomas elimination and back-substitution, twice per cell.
//
//lanegen:lanes
func matvecSub(a *[25]float64, r1, r2 *[5]float64) {
	r2[0] -= a[0]*r1[0] + a[5]*r1[1] + a[10]*r1[2] + a[15]*r1[3] + a[20]*r1[4]
	r2[1] -= a[1]*r1[0] + a[6]*r1[1] + a[11]*r1[2] + a[16]*r1[3] + a[21]*r1[4]
	r2[2] -= a[2]*r1[0] + a[7]*r1[1] + a[12]*r1[2] + a[17]*r1[3] + a[22]*r1[4]
	r2[3] -= a[3]*r1[0] + a[8]*r1[1] + a[13]*r1[2] + a[18]*r1[3] + a[23]*r1[4]
	r2[4] -= a[4]*r1[0] + a[9]*r1[1] + a[14]*r1[2] + a[19]*r1[3] + a[24]*r1[4]
}

// matmulSub computes c -= a * b for 5x5 blocks.
//
// Hot path: block Thomas forward elimination, once per cell.
//
//lanegen:lanes
func matmulSub(a, b, c *[25]float64) {
	c[0] -= a[0]*b[0] + a[5]*b[1] + a[10]*b[2] + a[15]*b[3] + a[20]*b[4]
	c[1] -= a[1]*b[0] + a[6]*b[1] + a[11]*b[2] + a[16]*b[3] + a[21]*b[4]
	c[2] -= a[2]*b[0] + a[7]*b[1] + a[12]*b[2] + a[17]*b[3] + a[22]*b[4]
	c[3] -= a[3]*b[0] + a[8]*b[1] + a[13]*b[2] + a[18]*b[3] + a[23]*b[4]
	c[4] -= a[4]*b[0] + a[9]*b[1] + a[14]*b[2] + a[19]*b[3] + a[24]*b[4]
	c[5] -= a[0]*b[5] + a[5]*b[6] + a[10]*b[7] + a[15]*b[8] + a[20]*b[9]
	c[6] -= a[1]*b[5] + a[6]*b[6] + a[11]*b[7] + a[16]*b[8] + a[21]*b[9]
	c[7] -= a[2]*b[5] + a[7]*b[6] + a[12]*b[7] + a[17]*b[8] + a[22]*b[9]
	c[8] -= a[3]*b[5] + a[8]*b[6] + a[13]*b[7] + a[18]*b[8] + a[23]*b[9]
	c[9] -= a[4]*b[5] + a[9]*b[6] + a[14]*b[7] + a[19]*b[8] + a[24]*b[9]
	c[10] -= a[0]*b[10] + a[5]*b[11] + a[10]*b[12] + a[15]*b[13] + a[20]*b[14]
	c[11] -= a[1]*b[10] + a[6]*b[11] + a[11]*b[12] + a[16]*b[13] + a[21]*b[14]
	c[12] -= a[2]*b[10] + a[7]*b[11] + a[12]*b[12] + a[17]*b[13] + a[22]*b[14]
	c[13] -= a[3]*b[10] + a[8]*b[11] + a[13]*b[12] + a[18]*b[13] + a[23]*b[14]
	c[14] -= a[4]*b[10] + a[9]*b[11] + a[14]*b[12] + a[19]*b[13] + a[24]*b[14]
	c[15] -= a[0]*b[15] + a[5]*b[16] + a[10]*b[17] + a[15]*b[18] + a[20]*b[19]
	c[16] -= a[1]*b[15] + a[6]*b[16] + a[11]*b[17] + a[16]*b[18] + a[21]*b[19]
	c[17] -= a[2]*b[15] + a[7]*b[16] + a[12]*b[17] + a[17]*b[18] + a[22]*b[19]
	c[18] -= a[3]*b[15] + a[8]*b[16] + a[13]*b[17] + a[18]*b[18] + a[23]*b[19]
	c[19] -= a[4]*b[15] + a[9]*b[16] + a[14]*b[17] + a[19]*b[18] + a[24]*b[19]
	c[20] -= a[0]*b[20] + a[5]*b[21] + a[10]*b[22] + a[15]*b[23] + a[20]*b[24]
	c[21] -= a[1]*b[20] + a[6]*b[21] + a[11]*b[22] + a[16]*b[23] + a[21]*b[24]
	c[22] -= a[2]*b[20] + a[7]*b[21] + a[12]*b[22] + a[17]*b[23] + a[22]*b[24]
	c[23] -= a[3]*b[20] + a[8]*b[21] + a[13]*b[22] + a[18]*b[23] + a[23]*b[24]
	c[24] -= a[4]*b[20] + a[9]*b[21] + a[14]*b[22] + a[19]*b[23] + a[24]*b[24]
}
