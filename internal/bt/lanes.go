// Code generated by lanegen from blocks.go and setup.go; DO NOT EDIT.

package bt

import "npbgo/internal/simd"

// binvcrhs8 runs binvcrhs on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func binvcrhs8(live int, blk, c *[25][8]float64, r *[5][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		binvcrhsAVX512(blk, c, r)
	case simd.Width >= 4:
		binvcrhsAVX(&blk[0][0], &c[0][0], &r[0][0])
		if live > 4 {
			binvcrhsAVX(&blk[0][4], &c[0][4], &r[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			pivot := 1.0 / blk[0][q]
			blk[5][q] *= pivot
			blk[10][q] *= pivot
			blk[15][q] *= pivot
			blk[20][q] *= pivot
			c[0][q] *= pivot
			c[5][q] *= pivot
			c[10][q] *= pivot
			c[15][q] *= pivot
			c[20][q] *= pivot
			r[0][q] *= pivot
			coeff := blk[1][q]
			blk[6][q] -= coeff * blk[5][q]
			blk[11][q] -= coeff * blk[10][q]
			blk[16][q] -= coeff * blk[15][q]
			blk[21][q] -= coeff * blk[20][q]
			c[1][q] -= coeff * c[0][q]
			c[6][q] -= coeff * c[5][q]
			c[11][q] -= coeff * c[10][q]
			c[16][q] -= coeff * c[15][q]
			c[21][q] -= coeff * c[20][q]
			r[1][q] -= coeff * r[0][q]
			coeff = blk[2][q]
			blk[7][q] -= coeff * blk[5][q]
			blk[12][q] -= coeff * blk[10][q]
			blk[17][q] -= coeff * blk[15][q]
			blk[22][q] -= coeff * blk[20][q]
			c[2][q] -= coeff * c[0][q]
			c[7][q] -= coeff * c[5][q]
			c[12][q] -= coeff * c[10][q]
			c[17][q] -= coeff * c[15][q]
			c[22][q] -= coeff * c[20][q]
			r[2][q] -= coeff * r[0][q]
			coeff = blk[3][q]
			blk[8][q] -= coeff * blk[5][q]
			blk[13][q] -= coeff * blk[10][q]
			blk[18][q] -= coeff * blk[15][q]
			blk[23][q] -= coeff * blk[20][q]
			c[3][q] -= coeff * c[0][q]
			c[8][q] -= coeff * c[5][q]
			c[13][q] -= coeff * c[10][q]
			c[18][q] -= coeff * c[15][q]
			c[23][q] -= coeff * c[20][q]
			r[3][q] -= coeff * r[0][q]
			coeff = blk[4][q]
			blk[9][q] -= coeff * blk[5][q]
			blk[14][q] -= coeff * blk[10][q]
			blk[19][q] -= coeff * blk[15][q]
			blk[24][q] -= coeff * blk[20][q]
			c[4][q] -= coeff * c[0][q]
			c[9][q] -= coeff * c[5][q]
			c[14][q] -= coeff * c[10][q]
			c[19][q] -= coeff * c[15][q]
			c[24][q] -= coeff * c[20][q]
			r[4][q] -= coeff * r[0][q]
			pivot = 1.0 / blk[6][q]
			blk[11][q] *= pivot
			blk[16][q] *= pivot
			blk[21][q] *= pivot
			c[1][q] *= pivot
			c[6][q] *= pivot
			c[11][q] *= pivot
			c[16][q] *= pivot
			c[21][q] *= pivot
			r[1][q] *= pivot
			coeff = blk[5][q]
			blk[10][q] -= coeff * blk[11][q]
			blk[15][q] -= coeff * blk[16][q]
			blk[20][q] -= coeff * blk[21][q]
			c[0][q] -= coeff * c[1][q]
			c[5][q] -= coeff * c[6][q]
			c[10][q] -= coeff * c[11][q]
			c[15][q] -= coeff * c[16][q]
			c[20][q] -= coeff * c[21][q]
			r[0][q] -= coeff * r[1][q]
			coeff = blk[7][q]
			blk[12][q] -= coeff * blk[11][q]
			blk[17][q] -= coeff * blk[16][q]
			blk[22][q] -= coeff * blk[21][q]
			c[2][q] -= coeff * c[1][q]
			c[7][q] -= coeff * c[6][q]
			c[12][q] -= coeff * c[11][q]
			c[17][q] -= coeff * c[16][q]
			c[22][q] -= coeff * c[21][q]
			r[2][q] -= coeff * r[1][q]
			coeff = blk[8][q]
			blk[13][q] -= coeff * blk[11][q]
			blk[18][q] -= coeff * blk[16][q]
			blk[23][q] -= coeff * blk[21][q]
			c[3][q] -= coeff * c[1][q]
			c[8][q] -= coeff * c[6][q]
			c[13][q] -= coeff * c[11][q]
			c[18][q] -= coeff * c[16][q]
			c[23][q] -= coeff * c[21][q]
			r[3][q] -= coeff * r[1][q]
			coeff = blk[9][q]
			blk[14][q] -= coeff * blk[11][q]
			blk[19][q] -= coeff * blk[16][q]
			blk[24][q] -= coeff * blk[21][q]
			c[4][q] -= coeff * c[1][q]
			c[9][q] -= coeff * c[6][q]
			c[14][q] -= coeff * c[11][q]
			c[19][q] -= coeff * c[16][q]
			c[24][q] -= coeff * c[21][q]
			r[4][q] -= coeff * r[1][q]
			pivot = 1.0 / blk[12][q]
			blk[17][q] *= pivot
			blk[22][q] *= pivot
			c[2][q] *= pivot
			c[7][q] *= pivot
			c[12][q] *= pivot
			c[17][q] *= pivot
			c[22][q] *= pivot
			r[2][q] *= pivot
			coeff = blk[10][q]
			blk[15][q] -= coeff * blk[17][q]
			blk[20][q] -= coeff * blk[22][q]
			c[0][q] -= coeff * c[2][q]
			c[5][q] -= coeff * c[7][q]
			c[10][q] -= coeff * c[12][q]
			c[15][q] -= coeff * c[17][q]
			c[20][q] -= coeff * c[22][q]
			r[0][q] -= coeff * r[2][q]
			coeff = blk[11][q]
			blk[16][q] -= coeff * blk[17][q]
			blk[21][q] -= coeff * blk[22][q]
			c[1][q] -= coeff * c[2][q]
			c[6][q] -= coeff * c[7][q]
			c[11][q] -= coeff * c[12][q]
			c[16][q] -= coeff * c[17][q]
			c[21][q] -= coeff * c[22][q]
			r[1][q] -= coeff * r[2][q]
			coeff = blk[13][q]
			blk[18][q] -= coeff * blk[17][q]
			blk[23][q] -= coeff * blk[22][q]
			c[3][q] -= coeff * c[2][q]
			c[8][q] -= coeff * c[7][q]
			c[13][q] -= coeff * c[12][q]
			c[18][q] -= coeff * c[17][q]
			c[23][q] -= coeff * c[22][q]
			r[3][q] -= coeff * r[2][q]
			coeff = blk[14][q]
			blk[19][q] -= coeff * blk[17][q]
			blk[24][q] -= coeff * blk[22][q]
			c[4][q] -= coeff * c[2][q]
			c[9][q] -= coeff * c[7][q]
			c[14][q] -= coeff * c[12][q]
			c[19][q] -= coeff * c[17][q]
			c[24][q] -= coeff * c[22][q]
			r[4][q] -= coeff * r[2][q]
			pivot = 1.0 / blk[18][q]
			blk[23][q] *= pivot
			c[3][q] *= pivot
			c[8][q] *= pivot
			c[13][q] *= pivot
			c[18][q] *= pivot
			c[23][q] *= pivot
			r[3][q] *= pivot
			coeff = blk[15][q]
			blk[20][q] -= coeff * blk[23][q]
			c[0][q] -= coeff * c[3][q]
			c[5][q] -= coeff * c[8][q]
			c[10][q] -= coeff * c[13][q]
			c[15][q] -= coeff * c[18][q]
			c[20][q] -= coeff * c[23][q]
			r[0][q] -= coeff * r[3][q]
			coeff = blk[16][q]
			blk[21][q] -= coeff * blk[23][q]
			c[1][q] -= coeff * c[3][q]
			c[6][q] -= coeff * c[8][q]
			c[11][q] -= coeff * c[13][q]
			c[16][q] -= coeff * c[18][q]
			c[21][q] -= coeff * c[23][q]
			r[1][q] -= coeff * r[3][q]
			coeff = blk[17][q]
			blk[22][q] -= coeff * blk[23][q]
			c[2][q] -= coeff * c[3][q]
			c[7][q] -= coeff * c[8][q]
			c[12][q] -= coeff * c[13][q]
			c[17][q] -= coeff * c[18][q]
			c[22][q] -= coeff * c[23][q]
			r[2][q] -= coeff * r[3][q]
			coeff = blk[19][q]
			blk[24][q] -= coeff * blk[23][q]
			c[4][q] -= coeff * c[3][q]
			c[9][q] -= coeff * c[8][q]
			c[14][q] -= coeff * c[13][q]
			c[19][q] -= coeff * c[18][q]
			c[24][q] -= coeff * c[23][q]
			r[4][q] -= coeff * r[3][q]
			pivot = 1.0 / blk[24][q]
			c[4][q] *= pivot
			c[9][q] *= pivot
			c[14][q] *= pivot
			c[19][q] *= pivot
			c[24][q] *= pivot
			r[4][q] *= pivot
			coeff = blk[20][q]
			c[0][q] -= coeff * c[4][q]
			c[5][q] -= coeff * c[9][q]
			c[10][q] -= coeff * c[14][q]
			c[15][q] -= coeff * c[19][q]
			c[20][q] -= coeff * c[24][q]
			r[0][q] -= coeff * r[4][q]
			coeff = blk[21][q]
			c[1][q] -= coeff * c[4][q]
			c[6][q] -= coeff * c[9][q]
			c[11][q] -= coeff * c[14][q]
			c[16][q] -= coeff * c[19][q]
			c[21][q] -= coeff * c[24][q]
			r[1][q] -= coeff * r[4][q]
			coeff = blk[22][q]
			c[2][q] -= coeff * c[4][q]
			c[7][q] -= coeff * c[9][q]
			c[12][q] -= coeff * c[14][q]
			c[17][q] -= coeff * c[19][q]
			c[22][q] -= coeff * c[24][q]
			r[2][q] -= coeff * r[4][q]
			coeff = blk[23][q]
			c[3][q] -= coeff * c[4][q]
			c[8][q] -= coeff * c[9][q]
			c[13][q] -= coeff * c[14][q]
			c[18][q] -= coeff * c[19][q]
			c[23][q] -= coeff * c[24][q]
			r[3][q] -= coeff * r[4][q]
		}
	}
}

// binvrhs8 runs binvrhs on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func binvrhs8(live int, blk *[25][8]float64, r *[5][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		binvrhsAVX512(blk, r)
	case simd.Width >= 4:
		binvrhsAVX(&blk[0][0], &r[0][0])
		if live > 4 {
			binvrhsAVX(&blk[0][4], &r[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			pivot := 1.0 / blk[0][q]
			blk[5][q] *= pivot
			blk[10][q] *= pivot
			blk[15][q] *= pivot
			blk[20][q] *= pivot
			r[0][q] *= pivot
			coeff := blk[1][q]
			blk[6][q] -= coeff * blk[5][q]
			blk[11][q] -= coeff * blk[10][q]
			blk[16][q] -= coeff * blk[15][q]
			blk[21][q] -= coeff * blk[20][q]
			r[1][q] -= coeff * r[0][q]
			coeff = blk[2][q]
			blk[7][q] -= coeff * blk[5][q]
			blk[12][q] -= coeff * blk[10][q]
			blk[17][q] -= coeff * blk[15][q]
			blk[22][q] -= coeff * blk[20][q]
			r[2][q] -= coeff * r[0][q]
			coeff = blk[3][q]
			blk[8][q] -= coeff * blk[5][q]
			blk[13][q] -= coeff * blk[10][q]
			blk[18][q] -= coeff * blk[15][q]
			blk[23][q] -= coeff * blk[20][q]
			r[3][q] -= coeff * r[0][q]
			coeff = blk[4][q]
			blk[9][q] -= coeff * blk[5][q]
			blk[14][q] -= coeff * blk[10][q]
			blk[19][q] -= coeff * blk[15][q]
			blk[24][q] -= coeff * blk[20][q]
			r[4][q] -= coeff * r[0][q]
			pivot = 1.0 / blk[6][q]
			blk[11][q] *= pivot
			blk[16][q] *= pivot
			blk[21][q] *= pivot
			r[1][q] *= pivot
			coeff = blk[5][q]
			blk[10][q] -= coeff * blk[11][q]
			blk[15][q] -= coeff * blk[16][q]
			blk[20][q] -= coeff * blk[21][q]
			r[0][q] -= coeff * r[1][q]
			coeff = blk[7][q]
			blk[12][q] -= coeff * blk[11][q]
			blk[17][q] -= coeff * blk[16][q]
			blk[22][q] -= coeff * blk[21][q]
			r[2][q] -= coeff * r[1][q]
			coeff = blk[8][q]
			blk[13][q] -= coeff * blk[11][q]
			blk[18][q] -= coeff * blk[16][q]
			blk[23][q] -= coeff * blk[21][q]
			r[3][q] -= coeff * r[1][q]
			coeff = blk[9][q]
			blk[14][q] -= coeff * blk[11][q]
			blk[19][q] -= coeff * blk[16][q]
			blk[24][q] -= coeff * blk[21][q]
			r[4][q] -= coeff * r[1][q]
			pivot = 1.0 / blk[12][q]
			blk[17][q] *= pivot
			blk[22][q] *= pivot
			r[2][q] *= pivot
			coeff = blk[10][q]
			blk[15][q] -= coeff * blk[17][q]
			blk[20][q] -= coeff * blk[22][q]
			r[0][q] -= coeff * r[2][q]
			coeff = blk[11][q]
			blk[16][q] -= coeff * blk[17][q]
			blk[21][q] -= coeff * blk[22][q]
			r[1][q] -= coeff * r[2][q]
			coeff = blk[13][q]
			blk[18][q] -= coeff * blk[17][q]
			blk[23][q] -= coeff * blk[22][q]
			r[3][q] -= coeff * r[2][q]
			coeff = blk[14][q]
			blk[19][q] -= coeff * blk[17][q]
			blk[24][q] -= coeff * blk[22][q]
			r[4][q] -= coeff * r[2][q]
			pivot = 1.0 / blk[18][q]
			blk[23][q] *= pivot
			r[3][q] *= pivot
			coeff = blk[15][q]
			blk[20][q] -= coeff * blk[23][q]
			r[0][q] -= coeff * r[3][q]
			coeff = blk[16][q]
			blk[21][q] -= coeff * blk[23][q]
			r[1][q] -= coeff * r[3][q]
			coeff = blk[17][q]
			blk[22][q] -= coeff * blk[23][q]
			r[2][q] -= coeff * r[3][q]
			coeff = blk[19][q]
			blk[24][q] -= coeff * blk[23][q]
			r[4][q] -= coeff * r[3][q]
			pivot = 1.0 / blk[24][q]
			r[4][q] *= pivot
			coeff = blk[20][q]
			r[0][q] -= coeff * r[4][q]
			coeff = blk[21][q]
			r[1][q] -= coeff * r[4][q]
			coeff = blk[22][q]
			r[2][q] -= coeff * r[4][q]
			coeff = blk[23][q]
			r[3][q] -= coeff * r[4][q]
		}
	}
}

// matvecSub8 runs matvecSub on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func matvecSub8(live int, a *[25][8]float64, r1, r2 *[5][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		matvecSubAVX512(a, r1, r2)
	case simd.Width >= 4:
		matvecSubAVX(&a[0][0], &r1[0][0], &r2[0][0])
		if live > 4 {
			matvecSubAVX(&a[0][4], &r1[0][4], &r2[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			r2[0][q] -= a[0][q]*r1[0][q] + a[5][q]*r1[1][q] + a[10][q]*r1[2][q] + a[15][q]*r1[3][q] + a[20][q]*r1[4][q]
			r2[1][q] -= a[1][q]*r1[0][q] + a[6][q]*r1[1][q] + a[11][q]*r1[2][q] + a[16][q]*r1[3][q] + a[21][q]*r1[4][q]
			r2[2][q] -= a[2][q]*r1[0][q] + a[7][q]*r1[1][q] + a[12][q]*r1[2][q] + a[17][q]*r1[3][q] + a[22][q]*r1[4][q]
			r2[3][q] -= a[3][q]*r1[0][q] + a[8][q]*r1[1][q] + a[13][q]*r1[2][q] + a[18][q]*r1[3][q] + a[23][q]*r1[4][q]
			r2[4][q] -= a[4][q]*r1[0][q] + a[9][q]*r1[1][q] + a[14][q]*r1[2][q] + a[19][q]*r1[3][q] + a[24][q]*r1[4][q]
		}
	}
}

// matmulSub8 runs matmulSub on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func matmulSub8(live int, a, b, c *[25][8]float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		matmulSubAVX512(a, b, c)
	case simd.Width >= 4:
		matmulSubAVX(&a[0][0], &b[0][0], &c[0][0])
		if live > 4 {
			matmulSubAVX(&a[0][4], &b[0][4], &c[0][4])
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			c[0][q] -= a[0][q]*b[0][q] + a[5][q]*b[1][q] + a[10][q]*b[2][q] + a[15][q]*b[3][q] + a[20][q]*b[4][q]
			c[1][q] -= a[1][q]*b[0][q] + a[6][q]*b[1][q] + a[11][q]*b[2][q] + a[16][q]*b[3][q] + a[21][q]*b[4][q]
			c[2][q] -= a[2][q]*b[0][q] + a[7][q]*b[1][q] + a[12][q]*b[2][q] + a[17][q]*b[3][q] + a[22][q]*b[4][q]
			c[3][q] -= a[3][q]*b[0][q] + a[8][q]*b[1][q] + a[13][q]*b[2][q] + a[18][q]*b[3][q] + a[23][q]*b[4][q]
			c[4][q] -= a[4][q]*b[0][q] + a[9][q]*b[1][q] + a[14][q]*b[2][q] + a[19][q]*b[3][q] + a[24][q]*b[4][q]
			c[5][q] -= a[0][q]*b[5][q] + a[5][q]*b[6][q] + a[10][q]*b[7][q] + a[15][q]*b[8][q] + a[20][q]*b[9][q]
			c[6][q] -= a[1][q]*b[5][q] + a[6][q]*b[6][q] + a[11][q]*b[7][q] + a[16][q]*b[8][q] + a[21][q]*b[9][q]
			c[7][q] -= a[2][q]*b[5][q] + a[7][q]*b[6][q] + a[12][q]*b[7][q] + a[17][q]*b[8][q] + a[22][q]*b[9][q]
			c[8][q] -= a[3][q]*b[5][q] + a[8][q]*b[6][q] + a[13][q]*b[7][q] + a[18][q]*b[8][q] + a[23][q]*b[9][q]
			c[9][q] -= a[4][q]*b[5][q] + a[9][q]*b[6][q] + a[14][q]*b[7][q] + a[19][q]*b[8][q] + a[24][q]*b[9][q]
			c[10][q] -= a[0][q]*b[10][q] + a[5][q]*b[11][q] + a[10][q]*b[12][q] + a[15][q]*b[13][q] + a[20][q]*b[14][q]
			c[11][q] -= a[1][q]*b[10][q] + a[6][q]*b[11][q] + a[11][q]*b[12][q] + a[16][q]*b[13][q] + a[21][q]*b[14][q]
			c[12][q] -= a[2][q]*b[10][q] + a[7][q]*b[11][q] + a[12][q]*b[12][q] + a[17][q]*b[13][q] + a[22][q]*b[14][q]
			c[13][q] -= a[3][q]*b[10][q] + a[8][q]*b[11][q] + a[13][q]*b[12][q] + a[18][q]*b[13][q] + a[23][q]*b[14][q]
			c[14][q] -= a[4][q]*b[10][q] + a[9][q]*b[11][q] + a[14][q]*b[12][q] + a[19][q]*b[13][q] + a[24][q]*b[14][q]
			c[15][q] -= a[0][q]*b[15][q] + a[5][q]*b[16][q] + a[10][q]*b[17][q] + a[15][q]*b[18][q] + a[20][q]*b[19][q]
			c[16][q] -= a[1][q]*b[15][q] + a[6][q]*b[16][q] + a[11][q]*b[17][q] + a[16][q]*b[18][q] + a[21][q]*b[19][q]
			c[17][q] -= a[2][q]*b[15][q] + a[7][q]*b[16][q] + a[12][q]*b[17][q] + a[17][q]*b[18][q] + a[22][q]*b[19][q]
			c[18][q] -= a[3][q]*b[15][q] + a[8][q]*b[16][q] + a[13][q]*b[17][q] + a[18][q]*b[18][q] + a[23][q]*b[19][q]
			c[19][q] -= a[4][q]*b[15][q] + a[9][q]*b[16][q] + a[14][q]*b[17][q] + a[19][q]*b[18][q] + a[24][q]*b[19][q]
			c[20][q] -= a[0][q]*b[20][q] + a[5][q]*b[21][q] + a[10][q]*b[22][q] + a[15][q]*b[23][q] + a[20][q]*b[24][q]
			c[21][q] -= a[1][q]*b[20][q] + a[6][q]*b[21][q] + a[11][q]*b[22][q] + a[16][q]*b[23][q] + a[21][q]*b[24][q]
			c[22][q] -= a[2][q]*b[20][q] + a[7][q]*b[21][q] + a[12][q]*b[22][q] + a[17][q]*b[23][q] + a[22][q]*b[24][q]
			c[23][q] -= a[3][q]*b[20][q] + a[8][q]*b[21][q] + a[13][q]*b[22][q] + a[18][q]*b[23][q] + a[23][q]*b[24][q]
			c[24][q] -= a[4][q]*b[20][q] + a[9][q]*b[21][q] + a[14][q]*b[22][q] + a[19][q]*b[23][q] + a[24][q]*b[24][q]
		}
	}
}

// jacobiansX8 runs jacobiansX on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func jacobiansX8(live int, fjac, njac *[25][8]float64, u *[5][8]float64, s *[3][8]float64, c1, c2, c3c4, r43, c1345 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		jacobiansXAVX512(fjac, njac, u, s, c1, c2, c3c4, r43, c1345)
	case simd.Width >= 4:
		jacobiansXAVX(&fjac[0][0], &njac[0][0], &u[0][0], &s[0][0], c1, c2, c3c4, r43, c1345)
		if live > 4 {
			jacobiansXAVX(&fjac[0][4], &njac[0][4], &u[0][4], &s[0][4], c1, c2, c3c4, r43, c1345)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u1, u2, u3, u4 := u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := s[0][q]
			qs, sq := s[1][q], s[2][q]
			t2 := t1 * t1
			t3 := t1 * t2
			fjac[0][q] = 0.0
			fjac[1][q] = -(u1*u1)*t2 + c2*qs
			fjac[2][q] = -(u2 * u1) * t2
			fjac[3][q] = -(u3 * u1) * t2
			fjac[4][q] = (c2*2.0*sq - c1*u4) * u1 * t2
			fjac[5][q] = 1.0
			fjac[6][q] = (2.0 - c2) * u1 * t1
			fjac[7][q] = u2 * t1
			fjac[8][q] = u3 * t1
			fjac[9][q] = c1*u4*t1 - c2*(qs+u1*u1*t2)
			fjac[10][q] = 0.0
			fjac[11][q] = -c2 * u2 * t1
			fjac[12][q] = u1 * t1
			fjac[13][q] = 0.0
			fjac[14][q] = -c2 * (u2 * u1) * t2
			fjac[15][q] = 0.0
			fjac[16][q] = -c2 * u3 * t1
			fjac[17][q] = 0.0
			fjac[18][q] = u1 * t1
			fjac[19][q] = -c2 * (u3 * u1) * t2
			fjac[20][q] = 0.0
			fjac[21][q] = c2
			fjac[22][q] = 0.0
			fjac[23][q] = 0.0
			fjac[24][q] = c1 * u1 * t1
			v1 := r43 - c1345
			v2 := c3c4 - c1345
			sum := 0.0
			sum += v1 * t3 * u1 * u1
			sum += v2 * t3 * u2 * u2
			sum += v2 * t3 * u3 * u3
			njac[0][q] = 0.0
			njac[1][q] = -r43 * t2 * u1
			njac[2][q] = -c3c4 * t2 * u2
			njac[3][q] = -c3c4 * t2 * u3
			njac[4][q] = -sum - c1345*t2*u4
			njac[5][q] = 0.0
			njac[6][q] = r43 * t1
			njac[7][q] = 0.0
			njac[8][q] = 0.0
			njac[9][q] = v1 * t2 * u1
			njac[10][q] = 0.0
			njac[11][q] = 0.0
			njac[12][q] = c3c4 * t1
			njac[13][q] = 0.0
			njac[14][q] = v2 * t2 * u2
			njac[15][q] = 0.0
			njac[16][q] = 0.0
			njac[17][q] = 0.0
			njac[18][q] = c3c4 * t1
			njac[19][q] = v2 * t2 * u3
			njac[20][q] = 0.0
			njac[21][q] = 0.0
			njac[22][q] = 0.0
			njac[23][q] = 0.0
			njac[24][q] = c1345 * t1
		}
	}
}

// jacobiansY8 runs jacobiansY on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func jacobiansY8(live int, fjac, njac *[25][8]float64, u *[5][8]float64, s *[3][8]float64, c1, c2, c3c4, r43, c1345 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		jacobiansYAVX512(fjac, njac, u, s, c1, c2, c3c4, r43, c1345)
	case simd.Width >= 4:
		jacobiansYAVX(&fjac[0][0], &njac[0][0], &u[0][0], &s[0][0], c1, c2, c3c4, r43, c1345)
		if live > 4 {
			jacobiansYAVX(&fjac[0][4], &njac[0][4], &u[0][4], &s[0][4], c1, c2, c3c4, r43, c1345)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u1, u2, u3, u4 := u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := s[0][q]
			qs, sq := s[1][q], s[2][q]
			t2 := t1 * t1
			t3 := t1 * t2
			fjac[0][q] = 0.0
			fjac[1][q] = -(u1 * u2) * t2
			fjac[2][q] = -(u2*u2)*t2 + c2*qs
			fjac[3][q] = -(u3 * u2) * t2
			fjac[4][q] = (c2*2.0*sq - c1*u4) * u2 * t2
			fjac[5][q] = 0.0
			fjac[6][q] = u2 * t1
			fjac[7][q] = -c2 * u1 * t1
			fjac[8][q] = 0.0
			fjac[9][q] = -c2 * (u1 * u2) * t2
			fjac[10][q] = 1.0
			fjac[11][q] = u1 * t1
			fjac[12][q] = (2.0 - c2) * u2 * t1
			fjac[13][q] = u3 * t1
			fjac[14][q] = c1*u4*t1 - c2*(qs+u2*u2*t2)
			fjac[15][q] = 0.0
			fjac[16][q] = 0.0
			fjac[17][q] = -c2 * u3 * t1
			fjac[18][q] = u2 * t1
			fjac[19][q] = -c2 * (u3 * u2) * t2
			fjac[20][q] = 0.0
			fjac[21][q] = 0.0
			fjac[22][q] = c2
			fjac[23][q] = 0.0
			fjac[24][q] = c1 * u2 * t1
			v1 := c3c4 - c1345
			v2 := r43 - c1345
			sum := 0.0
			sum += v1 * t3 * u1 * u1
			sum += v2 * t3 * u2 * u2
			sum += v1 * t3 * u3 * u3
			njac[0][q] = 0.0
			njac[1][q] = -c3c4 * t2 * u1
			njac[2][q] = -r43 * t2 * u2
			njac[3][q] = -c3c4 * t2 * u3
			njac[4][q] = -sum - c1345*t2*u4
			njac[5][q] = 0.0
			njac[6][q] = c3c4 * t1
			njac[7][q] = 0.0
			njac[8][q] = 0.0
			njac[9][q] = v1 * t2 * u1
			njac[10][q] = 0.0
			njac[11][q] = 0.0
			njac[12][q] = r43 * t1
			njac[13][q] = 0.0
			njac[14][q] = v2 * t2 * u2
			njac[15][q] = 0.0
			njac[16][q] = 0.0
			njac[17][q] = 0.0
			njac[18][q] = c3c4 * t1
			njac[19][q] = v1 * t2 * u3
			njac[20][q] = 0.0
			njac[21][q] = 0.0
			njac[22][q] = 0.0
			njac[23][q] = 0.0
			njac[24][q] = c1345 * t1
		}
	}
}

// jacobiansZ8 runs jacobiansZ on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func jacobiansZ8(live int, fjac, njac *[25][8]float64, u *[5][8]float64, s *[3][8]float64, c1, c2, c3c4, r43, c1345 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		jacobiansZAVX512(fjac, njac, u, s, c1, c2, c3c4, r43, c1345)
	case simd.Width >= 4:
		jacobiansZAVX(&fjac[0][0], &njac[0][0], &u[0][0], &s[0][0], c1, c2, c3c4, r43, c1345)
		if live > 4 {
			jacobiansZAVX(&fjac[0][4], &njac[0][4], &u[0][4], &s[0][4], c1, c2, c3c4, r43, c1345)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			u1, u2, u3, u4 := u[1][q], u[2][q], u[3][q], u[4][q]
			t1 := s[0][q]
			qs, sq := s[1][q], s[2][q]
			t2 := t1 * t1
			t3 := t1 * t2
			fjac[0][q] = 0.0
			fjac[1][q] = -(u1 * u3) * t2
			fjac[2][q] = -(u2 * u3) * t2
			fjac[3][q] = -(u3*u3)*t2 + c2*qs
			fjac[4][q] = (c2*2.0*sq - c1*u4) * u3 * t2
			fjac[5][q] = 0.0
			fjac[6][q] = u3 * t1
			fjac[7][q] = 0.0
			fjac[8][q] = -c2 * u1 * t1
			fjac[9][q] = -c2 * (u1 * u3) * t2
			fjac[10][q] = 0.0
			fjac[11][q] = 0.0
			fjac[12][q] = u3 * t1
			fjac[13][q] = -c2 * u2 * t1
			fjac[14][q] = -c2 * (u2 * u3) * t2
			fjac[15][q] = 1.0
			fjac[16][q] = u1 * t1
			fjac[17][q] = u2 * t1
			fjac[18][q] = (2.0 - c2) * u3 * t1
			fjac[19][q] = c1*u4*t1 - c2*(qs+u3*u3*t2)
			fjac[20][q] = 0.0
			fjac[21][q] = 0.0
			fjac[22][q] = 0.0
			fjac[23][q] = c2
			fjac[24][q] = c1 * u3 * t1
			v1 := c3c4 - c1345
			v2 := r43 - c1345
			sum := 0.0
			sum += v1 * t3 * u1 * u1
			sum += v1 * t3 * u2 * u2
			sum += v2 * t3 * u3 * u3
			njac[0][q] = 0.0
			njac[1][q] = -c3c4 * t2 * u1
			njac[2][q] = -c3c4 * t2 * u2
			njac[3][q] = -r43 * t2 * u3
			njac[4][q] = -sum - c1345*t2*u4
			njac[5][q] = 0.0
			njac[6][q] = c3c4 * t1
			njac[7][q] = 0.0
			njac[8][q] = 0.0
			njac[9][q] = v1 * t2 * u1
			njac[10][q] = 0.0
			njac[11][q] = 0.0
			njac[12][q] = c3c4 * t1
			njac[13][q] = 0.0
			njac[14][q] = v1 * t2 * u2
			njac[15][q] = 0.0
			njac[16][q] = 0.0
			njac[17][q] = 0.0
			njac[18][q] = r43 * t1
			njac[19][q] = v2 * t2 * u3
			njac[20][q] = 0.0
			njac[21][q] = 0.0
			njac[22][q] = 0.0
			njac[23][q] = 0.0
			njac[24][q] = c1345 * t1
		}
	}
}

// assemble8 runs assemble on lanes 0 to live-1, element e of lane q at [e][q];
// the assembly may run the lanes after them too.
func assemble8(live int, aa, bb, cc, fm, fp, nm, nc, np *[25][8]float64, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 float64) {
	switch {
	case simd.Width >= 8 && live > 4:
		assembleAVX512(aa, bb, cc, fm, fp, nm, nc, np, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4)
	case simd.Width >= 4:
		assembleAVX(&aa[0][0], &bb[0][0], &cc[0][0], &fm[0][0], &fp[0][0], &nm[0][0], &nc[0][0], &np[0][0], mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4)
		if live > 4 {
			assembleAVX(&aa[0][4], &bb[0][4], &cc[0][4], &fm[0][4], &fp[0][4], &nm[0][4], &nc[0][4], &np[0][4], mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4)
		}
	default:
		for q := 0; q < 8 && q < live; q++ {
			for e := 0; e < 25; e++ {
				aa[e][q] = mt2*fm[e][q] - t1*nm[e][q]
				bb[e][q] = t12 * nc[e][q]
				cc[e][q] = t2*fp[e][q] - t1*np[e][q]
			}
			aa[0][q] -= d0
			bb[0][q] += b0
			cc[0][q] -= d0
			aa[6][q] -= d1
			bb[6][q] += b1
			cc[6][q] -= d1
			aa[12][q] -= d2
			bb[12][q] += b2
			cc[12][q] -= d2
			aa[18][q] -= d3
			bb[18][q] += b3
			cc[18][q] -= d3
			aa[24][q] -= d4
			bb[24][q] += b4
			cc[24][q] -= d4
		}
	}
}
