// Code generated by lanegen from blocks.go and setup.go; DO NOT EDIT.

package bt

import "npbgo/internal/simd"

// binvcrhs4 runs binvcrhs on four lanes, element e of lane q at [e][q].
func binvcrhs4(blk, c *[25][4]float64, r *[5][4]float64) {
	if simd.AVX {
		binvcrhsAVX(blk, c, r)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [25]float64
		var lane2 [5]float64
		gatherLane(lane0[:], blk[:], q)
		gatherLane(lane1[:], c[:], q)
		gatherLane(lane2[:], r[:], q)
		binvcrhs(&lane0, &lane1, &lane2)
		scatterLane(blk[:], lane0[:], q)
		scatterLane(c[:], lane1[:], q)
		scatterLane(r[:], lane2[:], q)
	}
}

// binvrhs4 runs binvrhs on four lanes, element e of lane q at [e][q].
func binvrhs4(blk *[25][4]float64, r *[5][4]float64) {
	if simd.AVX {
		binvrhsAVX(blk, r)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [5]float64
		gatherLane(lane0[:], blk[:], q)
		gatherLane(lane1[:], r[:], q)
		binvrhs(&lane0, &lane1)
		scatterLane(blk[:], lane0[:], q)
		scatterLane(r[:], lane1[:], q)
	}
}

// matvecSub4 runs matvecSub on four lanes, element e of lane q at [e][q].
func matvecSub4(a *[25][4]float64, r1, r2 *[5][4]float64) {
	if simd.AVX {
		matvecSubAVX(a, r1, r2)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [5]float64
		var lane2 [5]float64
		gatherLane(lane0[:], a[:], q)
		gatherLane(lane1[:], r1[:], q)
		gatherLane(lane2[:], r2[:], q)
		matvecSub(&lane0, &lane1, &lane2)
		scatterLane(r2[:], lane2[:], q)
	}
}

// matmulSub4 runs matmulSub on four lanes, element e of lane q at [e][q].
func matmulSub4(a, b, c *[25][4]float64) {
	if simd.AVX {
		matmulSubAVX(a, b, c)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [25]float64
		var lane2 [25]float64
		gatherLane(lane0[:], a[:], q)
		gatherLane(lane1[:], b[:], q)
		gatherLane(lane2[:], c[:], q)
		matmulSub(&lane0, &lane1, &lane2)
		scatterLane(c[:], lane2[:], q)
	}
}

// jacobiansX4 runs jacobiansX on four lanes, element e of lane q at [e][q].
func jacobiansX4(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64) {
	if simd.AVX {
		jacobiansXAVX(fjac, njac, u, s, c1, c2, c3c4, r43, c1345)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [25]float64
		var lane2 [5]float64
		var lane3 [3]float64
		gatherLane(lane0[:], fjac[:], q)
		gatherLane(lane1[:], njac[:], q)
		gatherLane(lane2[:], u[:], q)
		gatherLane(lane3[:], s[:], q)
		jacobiansX(&lane0, &lane1, &lane2, &lane3, c1, c2, c3c4, r43, c1345)
		scatterLane(fjac[:], lane0[:], q)
		scatterLane(njac[:], lane1[:], q)
	}
}

// jacobiansY4 runs jacobiansY on four lanes, element e of lane q at [e][q].
func jacobiansY4(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64) {
	if simd.AVX {
		jacobiansYAVX(fjac, njac, u, s, c1, c2, c3c4, r43, c1345)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [25]float64
		var lane2 [5]float64
		var lane3 [3]float64
		gatherLane(lane0[:], fjac[:], q)
		gatherLane(lane1[:], njac[:], q)
		gatherLane(lane2[:], u[:], q)
		gatherLane(lane3[:], s[:], q)
		jacobiansY(&lane0, &lane1, &lane2, &lane3, c1, c2, c3c4, r43, c1345)
		scatterLane(fjac[:], lane0[:], q)
		scatterLane(njac[:], lane1[:], q)
	}
}

// jacobiansZ4 runs jacobiansZ on four lanes, element e of lane q at [e][q].
func jacobiansZ4(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64) {
	if simd.AVX {
		jacobiansZAVX(fjac, njac, u, s, c1, c2, c3c4, r43, c1345)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [25]float64
		var lane2 [5]float64
		var lane3 [3]float64
		gatherLane(lane0[:], fjac[:], q)
		gatherLane(lane1[:], njac[:], q)
		gatherLane(lane2[:], u[:], q)
		gatherLane(lane3[:], s[:], q)
		jacobiansZ(&lane0, &lane1, &lane2, &lane3, c1, c2, c3c4, r43, c1345)
		scatterLane(fjac[:], lane0[:], q)
		scatterLane(njac[:], lane1[:], q)
	}
}

// assemble4 runs assemble on four lanes, element e of lane q at [e][q].
func assemble4(aa, bb, cc, fm, fp, nm, nc, np *[25][4]float64, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 float64) {
	if simd.AVX {
		assembleAVX(aa, bb, cc, fm, fp, nm, nc, np, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [25]float64
		var lane1 [25]float64
		var lane2 [25]float64
		var lane3 [25]float64
		var lane4 [25]float64
		var lane5 [25]float64
		var lane6 [25]float64
		var lane7 [25]float64
		gatherLane(lane0[:], aa[:], q)
		gatherLane(lane1[:], bb[:], q)
		gatherLane(lane2[:], cc[:], q)
		gatherLane(lane3[:], fm[:], q)
		gatherLane(lane4[:], fp[:], q)
		gatherLane(lane5[:], nm[:], q)
		gatherLane(lane6[:], nc[:], q)
		gatherLane(lane7[:], np[:], q)
		assemble(&lane0, &lane1, &lane2, &lane3, &lane4, &lane5, &lane6, &lane7, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4)
		scatterLane(aa[:], lane0[:], q)
		scatterLane(bb[:], lane1[:], q)
		scatterLane(cc[:], lane2[:], q)
	}
}

// gatherLane copies lane q of src into dst.
func gatherLane(dst []float64, src [][4]float64, q int) {
	for e := range dst {
		dst[e] = src[e][q]
	}
}

// scatterLane copies src into lane q of dst.
func scatterLane(dst [][4]float64, src []float64, q int) {
	for e := range src {
		dst[e][q] = src[e]
	}
}
