// Code generated by lanegen from kernels.go; DO NOT EDIT.

package sp

import "npbgo/internal/simd"

// eigen4 runs eigen on four lanes, element e of lane q at [e][q].
func eigen4(s *[8][4]float64, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1 float64) {
	if simd.AVX {
		eigenAVX(s, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [8]float64
		gatherLane(lane0[:], s[:], q)
		eigen(&lane0, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1)
		scatterLane(s[:], lane0[:], q)
	}
}

// lhsRow4 runs lhsRow on four lanes, element e of lane q at [e][q].
func lhsRow4(u, p, m *[5][4]float64, sm, s, sp *[8][4]float64, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4 float64) {
	if simd.AVX {
		lhsRowAVX(u, p, m, sm, s, sp, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		var lane1 [5]float64
		var lane2 [5]float64
		var lane3 [8]float64
		var lane4 [8]float64
		var lane5 [8]float64
		gatherLane(lane0[:], u[:], q)
		gatherLane(lane1[:], p[:], q)
		gatherLane(lane2[:], m[:], q)
		gatherLane(lane3[:], sm[:], q)
		gatherLane(lane4[:], s[:], q)
		gatherLane(lane5[:], sp[:], q)
		lhsRow(&lane0, &lane1, &lane2, &lane3, &lane4, &lane5, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4)
		scatterLane(u[:], lane0[:], q)
		scatterLane(p[:], lane1[:], q)
		scatterLane(m[:], lane2[:], q)
	}
}

// forwardStep4 runs forwardStep on four lanes, element e of lane q at [e][q].
func forwardStep4(u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2 *[5][4]float64) {
	if simd.AVX {
		forwardStepAVX(u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		var lane1 [5]float64
		var lane2 [5]float64
		var lane3 [5]float64
		var lane4 [5]float64
		var lane5 [5]float64
		var lane6 [5]float64
		var lane7 [5]float64
		var lane8 [5]float64
		var lane9 [5]float64
		var lane10 [5]float64
		var lane11 [5]float64
		gatherLane(lane0[:], u0[:], q)
		gatherLane(lane1[:], u1[:], q)
		gatherLane(lane2[:], u2[:], q)
		gatherLane(lane3[:], p0[:], q)
		gatherLane(lane4[:], p1[:], q)
		gatherLane(lane5[:], p2[:], q)
		gatherLane(lane6[:], m0[:], q)
		gatherLane(lane7[:], m1[:], q)
		gatherLane(lane8[:], m2[:], q)
		gatherLane(lane9[:], r0[:], q)
		gatherLane(lane10[:], r1[:], q)
		gatherLane(lane11[:], r2[:], q)
		forwardStep(&lane0, &lane1, &lane2, &lane3, &lane4, &lane5, &lane6, &lane7, &lane8, &lane9, &lane10, &lane11)
		scatterLane(u0[:], lane0[:], q)
		scatterLane(u1[:], lane1[:], q)
		scatterLane(u2[:], lane2[:], q)
		scatterLane(p0[:], lane3[:], q)
		scatterLane(p1[:], lane4[:], q)
		scatterLane(p2[:], lane5[:], q)
		scatterLane(m0[:], lane6[:], q)
		scatterLane(m1[:], lane7[:], q)
		scatterLane(m2[:], lane8[:], q)
		scatterLane(r0[:], lane9[:], q)
		scatterLane(r1[:], lane10[:], q)
		scatterLane(r2[:], lane11[:], q)
	}
}

// lastRows4 runs lastRows on four lanes, element e of lane q at [e][q].
func lastRows4(u0, u1, p0, p1, m0, m1, r0, r1 *[5][4]float64) {
	if simd.AVX {
		lastRowsAVX(u0, u1, p0, p1, m0, m1, r0, r1)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		var lane1 [5]float64
		var lane2 [5]float64
		var lane3 [5]float64
		var lane4 [5]float64
		var lane5 [5]float64
		var lane6 [5]float64
		var lane7 [5]float64
		gatherLane(lane0[:], u0[:], q)
		gatherLane(lane1[:], u1[:], q)
		gatherLane(lane2[:], p0[:], q)
		gatherLane(lane3[:], p1[:], q)
		gatherLane(lane4[:], m0[:], q)
		gatherLane(lane5[:], m1[:], q)
		gatherLane(lane6[:], r0[:], q)
		gatherLane(lane7[:], r1[:], q)
		lastRows(&lane0, &lane1, &lane2, &lane3, &lane4, &lane5, &lane6, &lane7)
		scatterLane(u0[:], lane0[:], q)
		scatterLane(u1[:], lane1[:], q)
		scatterLane(p0[:], lane2[:], q)
		scatterLane(p1[:], lane3[:], q)
		scatterLane(m0[:], lane4[:], q)
		scatterLane(m1[:], lane5[:], q)
		scatterLane(r0[:], lane6[:], q)
		scatterLane(r1[:], lane7[:], q)
	}
}

// backStep4 runs backStep on four lanes, element e of lane q at [e][q].
func backStep4(u, p, m, r, r0, r1 *[5][4]float64) {
	if simd.AVX {
		backStepAVX(u, p, m, r, r0, r1)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		var lane1 [5]float64
		var lane2 [5]float64
		var lane3 [5]float64
		var lane4 [5]float64
		var lane5 [5]float64
		gatherLane(lane0[:], u[:], q)
		gatherLane(lane1[:], p[:], q)
		gatherLane(lane2[:], m[:], q)
		gatherLane(lane3[:], r[:], q)
		gatherLane(lane4[:], r0[:], q)
		gatherLane(lane5[:], r1[:], q)
		backStep(&lane0, &lane1, &lane2, &lane3, &lane4, &lane5)
		scatterLane(r[:], lane3[:], q)
	}
}

// txinvr4 runs txinvr on four lanes, element e of lane q at [e][q].
func txinvr4(r *[5][4]float64, s *[8][4]float64, bt, c2 float64) {
	if simd.AVX {
		txinvrAVX(r, s, bt, c2)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		var lane1 [8]float64
		gatherLane(lane0[:], r[:], q)
		gatherLane(lane1[:], s[:], q)
		txinvr(&lane0, &lane1, bt, c2)
		scatterLane(r[:], lane0[:], q)
	}
}

// ninvr4 runs ninvr on four lanes, element e of lane q at [e][q].
func ninvr4(r *[5][4]float64, bt float64) {
	if simd.AVX {
		ninvrAVX(r, bt)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		gatherLane(lane0[:], r[:], q)
		ninvr(&lane0, bt)
		scatterLane(r[:], lane0[:], q)
	}
}

// pinvr4 runs pinvr on four lanes, element e of lane q at [e][q].
func pinvr4(r *[5][4]float64, bt float64) {
	if simd.AVX {
		pinvrAVX(r, bt)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		gatherLane(lane0[:], r[:], q)
		pinvr(&lane0, bt)
		scatterLane(r[:], lane0[:], q)
	}
}

// tzetar4 runs tzetar on four lanes, element e of lane q at [e][q].
func tzetar4(r *[5][4]float64, s *[8][4]float64, bt, c2iv float64) {
	if simd.AVX {
		tzetarAVX(r, s, bt, c2iv)
		return
	}
	for q := 0; q < 4; q++ {
		var lane0 [5]float64
		var lane1 [8]float64
		gatherLane(lane0[:], r[:], q)
		gatherLane(lane1[:], s[:], q)
		tzetar(&lane0, &lane1, bt, c2iv)
		scatterLane(r[:], lane0[:], q)
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
