// Code generated by lanegen from kernels.go; DO NOT EDIT.

package lu

// The row kernels of lanes_amd64.s.

//go:noescape
func opVelAVX(v1, v2, v3, v4, sq, w0, w1, w2, w3, w4 *float64, groups int)

//go:noescape
func opFluxAVX(fa, fb, fc, f4, w0, w1, w2, w3, w4, wa, wb, wc *float64, c1, c2 float64, groups int)

//go:noescape
func opVisc4AVX(h, sq, sqm, va, vam, v4, v4m *float64, e1, e2, e3 float64, groups int)

//go:noescape
func opRhoAVX(o, dis, fp, fm, wm, w, wp *float64, t2, d float64, groups int)

//go:noescape
func opMomAVX(o, dis, fp, fm, vp, v, vm, wm, w, wp *float64, t2, visc, t3c34, d float64, groups int)

//go:noescape
func opEnergyAVX(o, dis, fp, fm, hp, h, wm, w, wp *float64, t2, t3c34, d float64, groups int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// avxSupported reports whether the CPU has AVX and the OS saves the
// YMM registers across context switches (CPUID.1:ECX.OSXSAVE and AVX,
// then XCR0 bits 1 and 2).
func avxSupported() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}
