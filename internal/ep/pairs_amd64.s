#include "textflag.h"

// pairsAVX512 is ep.go's pairs for AVX-512 (simd.Width 8, which implies
// AVX512DQ for VPMULLQ and VCVTQQ2PD). Each step takes eight pairs: Z0
// holds the states of their first uniforms and Z1 of their second, lane
// q pair q (DESIGN.md §39). Every operation is the one pairsGo makes,
// unfused, on eight pairs at once:
//   - the uniform is R46·float64(state), exact, and the states step to
//     state·a mod 2^46 (the wrapped 64-bit product, masked);
//   - x1 = 2u−1, x2 = 2v−1 and t = x1²+x2²;
//   - reduce(t) on the bit patterns: fb is t's mantissa under the
//     exponent of ½, d = (fb − bits(√2/2)) >> 63 is 1 where the fraction
//     is below √2/2, f = frombits(fb + d<<52) − 1 and k = (bits>>52) −
//     0x3FE − d, converted;
//   - K1 is t <= 1 (ordered), and VCOMPRESSPD stores the lanes under
//     K1, lowest first, at the write index of each row: the accepted
//     pairs in stream order, and nothing for the others. The index
//     advances by the count of K1's bits.

// func pairsAVX512(gen *[2][8]uint64, a uint64, steps int, x1, x2, t, f, k *[sub]float64) int
TEXT ·pairsAVX512(SB), NOSPLIT, $0-72
	MOVQ         gen+0(FP), AX
	VMOVDQU64    (AX), Z0
	VMOVDQU64    64(AX), Z1
	VPBROADCASTQ a+8(FP), Z2
	MOVQ         steps+16(FP), CX
	MOVQ         x1+24(FP), DI
	MOVQ         x2+32(FP), SI
	MOVQ         t+40(FP), R8
	MOVQ         f+48(FP), R9
	MOVQ         k+56(FP), R10
	XORQ         DX, DX // the write index
	MOVQ         $0x00003fffffffffff, BX // 2^46 − 1
	VPBROADCASTQ BX, Z3
	MOVQ         $0x3d10000000000000, BX // 2^−46
	VPBROADCASTQ BX, Z4
	MOVQ         $0x4000000000000000, BX // 2.0
	VPBROADCASTQ BX, Z5
	MOVQ         $0x3ff0000000000000, BX // 1.0
	VPBROADCASTQ BX, Z6
	MOVQ         $0x000fffffffffffff, BX // the mantissa field
	VPBROADCASTQ BX, Z7
	MOVQ         $0x3fe0000000000000, BX // the exponent field of ½
	VPBROADCASTQ BX, Z8
	MOVQ         $0x3fe6a09e667f3bcd, BX // bits of √2/2
	VPBROADCASTQ BX, Z9
	MOVQ         $0x3fe, BX
	VPBROADCASTQ BX, Z10
	TESTQ        CX, CX
	JZ           done

step:
	VCVTQQ2PD Z0, Z11
	VCVTQQ2PD Z1, Z12
	VPMULLQ   Z2, Z0, Z0
	VPMULLQ   Z2, Z1, Z1
	VPANDQ    Z3, Z0, Z0
	VPANDQ    Z3, Z1, Z1
	VMULPD    Z4, Z11, Z11
	VMULPD    Z4, Z12, Z12
	VMULPD    Z5, Z11, Z11
	VMULPD    Z5, Z12, Z12
	VSUBPD    Z6, Z11, Z11 // x1
	VSUBPD    Z6, Z12, Z12 // x2
	VMULPD    Z11, Z11, Z13
	VMULPD    Z12, Z12, Z14
	VADDPD    Z14, Z13, Z13 // t
	VCMPPD    $0x12, Z6, Z13, K1 // t <= 1, ordered
	VPANDQ    Z7, Z13, Z14
	VPORQ     Z8, Z14, Z14 // fb
	VPSUBQ    Z9, Z14, Z15
	VPSRLQ    $63, Z15, Z15 // d
	VPSLLQ    $52, Z15, Z16
	VPADDQ    Z16, Z14, Z14
	VSUBPD    Z6, Z14, Z14 // f
	VPSRLQ    $52, Z13, Z16
	VPSUBQ    Z10, Z16, Z16
	VPSUBQ    Z15, Z16, Z16
	VCVTQQ2PD Z16, Z16 // k
	VCOMPRESSPD Z11, K1, (DI)(DX*8)
	VCOMPRESSPD Z12, K1, (SI)(DX*8)
	VCOMPRESSPD Z13, K1, (R8)(DX*8)
	VCOMPRESSPD Z14, K1, (R9)(DX*8)
	VCOMPRESSPD Z16, K1, (R10)(DX*8)
	KMOVB     K1, BX
	POPCNTL   BX, BX
	ADDQ      BX, DX
	DECQ      CX
	JNZ       step

done:
	VMOVDQU64 Z0, (AX)
	VMOVDQU64 Z1, 64(AX)
	MOVQ      DX, ret+64(FP)
	VZEROUPPER
	RET
