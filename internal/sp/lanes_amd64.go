// Code generated by lanegen from kernels.go; DO NOT EDIT.

package sp

// The kernels of lanes_amd64.s.

//go:noescape
func eigenAVX(s *[8][4]float64, c3c4, con43, c1c5, d2or3or4, d5, dmax, d1 float64)

//go:noescape
func lhsRowAVX(u, p, m *[5][4]float64, sm, s, sp *[8][4]float64, dtt1, dtt2, c2dtt1, t0, t1, t2, t3, t4 float64)

//go:noescape
func forwardStepAVX(u0, u1, u2, p0, p1, p2, m0, m1, m2, r0, r1, r2 *[5][4]float64)

//go:noescape
func lastRowsAVX(u0, u1, p0, p1, m0, m1, r0, r1 *[5][4]float64)

//go:noescape
func backStepAVX(u, p, m, r, r0, r1 *[5][4]float64)

//go:noescape
func txinvrAVX(r *[5][4]float64, s *[8][4]float64, bt, c2 float64)

//go:noescape
func ninvrAVX(r *[5][4]float64, bt float64)

//go:noescape
func pinvrAVX(r *[5][4]float64, bt float64)

//go:noescape
func tzetarAVX(r *[5][4]float64, s *[8][4]float64, bt, c2iv float64)
