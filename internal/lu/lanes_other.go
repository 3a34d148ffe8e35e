// Code generated by lanegen from blocks.go and kernels.go; DO NOT EDIT.

//go:build !amd64

package lu

// Without amd64 there are no kernels in assembly: simd.Width is 1 and
// every wrapper runs the scalar body. These stubs only keep lanes.go
// compiling.

const noAVX = "lu: AVX kernels exist only on amd64"

func couplingXAVX(dst, u *float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	panic(noAVX)
}

func couplingXAVX512(dst *[25][8]float64, u *[5][8]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	panic(noAVX)
}

func couplingYAVX(dst, u *float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	panic(noAVX)
}

func couplingYAVX512(dst *[25][8]float64, u *[5][8]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	panic(noAVX)
}

func couplingZAVX(dst, u *float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	panic(noAVX)
}

func couplingZAVX512(dst *[25][8]float64, u *[5][8]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64) {
	panic(noAVX)
}

func diagonalAVX(dst, u *float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	panic(noAVX)
}

func diagonalAVX512(dst *[25][8]float64, u *[5][8]float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	panic(noAVX)
}

func factor5AVX(a *float64) { panic(noAVX) }

func factor5AVX512(a *[25][8]float64) { panic(noAVX) }

func lowerStepAVX(r, az, ay, ax, d, rz, ry, rx *float64, omega float64) { panic(noAVX) }

func lowerStepAVX512(r *[5][8]float64, az, ay, ax, d *[25][8]float64, rz, ry, rx *[5][8]float64, omega float64) {
	panic(noAVX)
}

func upperStepAVX(r, az, ay, ax, d, rz, ry, rx *float64, omega float64) { panic(noAVX) }

func upperStepAVX512(r *[5][8]float64, az, ay, ax, d *[25][8]float64, rz, ry, rx *[5][8]float64, omega float64) {
	panic(noAVX)
}

func opVelAVX(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 *float64, groups int) { panic(noAVX) }

func opVelAVX512(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 *float64, groups int) { panic(noAVX) }

func opFluxAVX(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc *float64, c1, c2 float64, groups int) {
	panic(noAVX)
}

func opFluxAVX512(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc *float64, c1, c2 float64, groups int) {
	panic(noAVX)
}

func opVisc4AVX(h, sq, sqm, va, vam, v4, v4m *float64, e1, e2, e3 float64, groups int) { panic(noAVX) }

func opVisc4AVX512(h, sq, sqm, va, vam, v4, v4m *float64, e1, e2, e3 float64, groups int) {
	panic(noAVX)
}

func opRhoAVX(o, dis, fp, fm, wm, w, wp *float64, t2, d float64, groups int) { panic(noAVX) }

func opRhoAVX512(o, dis, fp, fm, wm, w, wp *float64, t2, d float64, groups int) { panic(noAVX) }

func opMomAVX(o, dis, fp, fm, vp, v, vm, wm, w, wp *float64, t2, visc, t3c34, d float64, groups int) {
	panic(noAVX)
}

func opMomAVX512(o, dis, fp, fm, vp, v, vm, wm, w, wp *float64, t2, visc, t3c34, d float64, groups int) {
	panic(noAVX)
}

func opEnergyAVX(o, dis, fp, fm, hp, h, wm, w, wp *float64, t2, t3c34, d float64, groups int) {
	panic(noAVX)
}

func opEnergyAVX512(o, dis, fp, fm, hp, h, wm, w, wp *float64, t2, t3c34, d float64, groups int) {
	panic(noAVX)
}
