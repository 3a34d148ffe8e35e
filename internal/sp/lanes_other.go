// Code generated by lanegen from kernels.go; DO NOT EDIT.

//go:build !amd64

package sp

// Without amd64 there are no kernels in assembly: simd.AVX is false and
// every wrapper runs the scalar body. These stubs only keep lanes.go
// compiling.

const noAVX = "sp: AVX kernels exist only on amd64"

func eigenAVX(s *[8][4]float64, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1 float64) { panic(noAVX) }

func lhsRowAVX(u, p, m *[5][4]float64, sm, s, sp *[8][4]float64, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4 float64) {
	panic(noAVX)
}

func forwardStepAVX(u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2 *[5][4]float64) { panic(noAVX) }

func lastRowsAVX(u0, u1, p0, p1, m0, m1, r0, r1 *[5][4]float64) { panic(noAVX) }

func backStepAVX(u, p, m, r, r0, r1 *[5][4]float64) { panic(noAVX) }

func txinvrAVX(r *[5][4]float64, s *[8][4]float64, bt, c2 float64) { panic(noAVX) }

func ninvrAVX(r *[5][4]float64, bt float64) { panic(noAVX) }

func pinvrAVX(r *[5][4]float64, bt float64) { panic(noAVX) }

func tzetarAVX(r *[5][4]float64, s *[8][4]float64, bt, c2iv float64) { panic(noAVX) }
