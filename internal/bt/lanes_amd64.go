// Code generated by lanegen from blocks.go and setup.go; DO NOT EDIT.

package bt

// The kernels of lanes_amd64.s.

//go:noescape
func binvcrhsAVX(blk, c *[25][4]float64, r *[5][4]float64)

//go:noescape
func binvrhsAVX(blk *[25][4]float64, r *[5][4]float64)

//go:noescape
func matvecSubAVX(a *[25][4]float64, r1, r2 *[5][4]float64)

//go:noescape
func matmulSubAVX(a, b, c *[25][4]float64)

//go:noescape
func jacobiansXAVX(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64)

//go:noescape
func jacobiansYAVX(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64)

//go:noescape
func jacobiansZAVX(fjac, njac *[25][4]float64, u *[5][4]float64, s *[3][4]float64, c1, c2, c3c4, r43, c1345 float64)

//go:noescape
func assembleAVX(aa, bb, cc, fm, fp, nm, nc, np *[25][4]float64, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 float64)
