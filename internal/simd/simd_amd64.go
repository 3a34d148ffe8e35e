package simd

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
