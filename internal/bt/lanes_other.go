// Code generated by lanegen from blocks.go and setup.go; DO NOT EDIT.

//go:build !amd64

package bt

// Without amd64 there are no kernels in assembly: simd.AVX is false and
// every wrapper runs the scalar body. These stubs only keep lanes.go
// compiling.

const noAVX = "bt: AVX kernels exist only on amd64"

func binvcrhsAVX(blk, c *[25][4]float64, r *[5][4]float64) { panic(noAVX) }

func binvrhsAVX(blk *[25][4]float64, r *[5][4]float64) { panic(noAVX) }

func matvecSubAVX(a *[25][4]float64, r1, r2 *[5][4]float64) { panic(noAVX) }

func matmulSubAVX(a, b, c *[25][4]float64) { panic(noAVX) }

func jacobiansXAVX(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64) {
	panic(noAVX)
}

func jacobiansYAVX(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64) {
	panic(noAVX)
}

func jacobiansZAVX(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64) {
	panic(noAVX)
}

func assembleAVX(aa, bb, cc, fm, fp, nm, nc, np *[25][4]float64, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 float64) {
	panic(noAVX)
}
