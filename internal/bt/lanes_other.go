//go:build !amd64

package bt

// Without amd64 there are no lane kernels in assembly: useAVX is false
// and every lane kernel runs its scalar namesake lane by lane. These
// stubs only keep lanes.go compiling.

func avxSupported() bool { return false }

const noAVX = "bt: AVX lane kernels exist only on amd64"

func binvcrhsAVX(blk, c *blk4, r *vec4)  { panic(noAVX) }
func binvrhsAVX(blk *blk4, r *vec4)      { panic(noAVX) }
func matvecSubAVX(a *blk4, r1, r2 *vec4) { panic(noAVX) }
func matmulSubAVX(a, b, c *blk4)         { panic(noAVX) }
func jacobiansXAVX(fjac, njac *blk4, u *vec4, s *pt4, c1, c2, c3c4, r43, c1345 float64) {
	panic(noAVX)
}
func jacobiansYAVX(fjac, njac *blk4, u *vec4, s *pt4, c1, c2, c3c4, r43, c1345 float64) {
	panic(noAVX)
}
func jacobiansZAVX(fjac, njac *blk4, u *vec4, s *pt4, c1, c2, c3c4, r43, c1345 float64) {
	panic(noAVX)
}
func assembleAVX(aa, bb, cc, fm, fp, nm, nc, np *blk4, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 float64) {
	panic(noAVX)
}
