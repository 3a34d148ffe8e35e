// Code generated by lanegen from kernels.go; DO NOT EDIT.

//go:build !amd64

package lu

// Without amd64 there are no row kernels in assembly: useAVX is false
// and every row runs the scalar body. These stubs only keep rows.go compiling.

func avxSupported() bool { return false }

const noAVX = "lu: AVX row kernels exist only on amd64"

func opVelAVX(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 *float64, groups int) { panic(noAVX) }

func opFluxAVX(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc *float64, c1, c2 float64, groups int) {
	panic(noAVX)
}

func opVisc4AVX(h, sq, sqm, va, vam, v4, v4m *float64, e1, e2, e3 float64, groups int) { panic(noAVX) }

func opRhoAVX(o, dis, fp, fm, wm, w, wp *float64, t2, d float64, groups int) { panic(noAVX) }

func opMomAVX(o, dis, fp, fm, vp, v, vm, wm, w, wp *float64, t2, visc, t3c34, d float64, groups int) {
	panic(noAVX)
}

func opEnergyAVX(o, dis, fp, fm, hp, h, wm, w, wp *float64, t2, t3c34, d float64, groups int) {
	panic(noAVX)
}
