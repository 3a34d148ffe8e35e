package simd

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// width returns 8 if the CPU has AVX-512F and AVX512DQ (CPUID.7:EBX bits
// 16 and 17; DQ for VXORPD on ZMM registers) and the OS saves the
// opmask and ZMM state (XCR0 bits 1, 2 and 5-7), else 4 if the CPU has
// AVX and the OS saves the YMM registers (CPUID.1:ECX.OSXSAVE and AVX,
// then XCR0 bits 1 and 2), else 1.
func width() int {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return 1
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return 1
	}
	const avx512f, avx512dq = 1 << 16, 1 << 17
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, ebx, _, _ := cpuid(7, 0)
		if ebx&avx512f != 0 && ebx&avx512dq != 0 && xcr0&0xe6 == 0xe6 {
			return 8
		}
	}
	return 4
}
