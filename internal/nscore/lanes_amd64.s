// Code generated by lanegen from kernels.go; DO NOT EDIT.

#include "textflag.h"

// Four copies of each constant: the sign mask, then the kernels' literals.
DATA lanesconst<>+0(SB)/8, $0x8000000000000000
DATA lanesconst<>+8(SB)/8, $0x8000000000000000
DATA lanesconst<>+16(SB)/8, $0x8000000000000000
DATA lanesconst<>+24(SB)/8, $0x8000000000000000
DATA lanesconst<>+32(SB)/8, $0x4000000000000000
DATA lanesconst<>+40(SB)/8, $0x4000000000000000
DATA lanesconst<>+48(SB)/8, $0x4000000000000000
DATA lanesconst<>+56(SB)/8, $0x4000000000000000
DATA lanesconst<>+64(SB)/8, $0x3ff0000000000000
DATA lanesconst<>+72(SB)/8, $0x3ff0000000000000
DATA lanesconst<>+80(SB)/8, $0x3ff0000000000000
DATA lanesconst<>+88(SB)/8, $0x3ff0000000000000
DATA lanesconst<>+96(SB)/8, $0x3fe0000000000000
DATA lanesconst<>+104(SB)/8, $0x3fe0000000000000
DATA lanesconst<>+112(SB)/8, $0x3fe0000000000000
DATA lanesconst<>+120(SB)/8, $0x3fe0000000000000
DATA lanesconst<>+128(SB)/8, $0x4014000000000000
DATA lanesconst<>+136(SB)/8, $0x4014000000000000
DATA lanesconst<>+144(SB)/8, $0x4014000000000000
DATA lanesconst<>+152(SB)/8, $0x4014000000000000
DATA lanesconst<>+160(SB)/8, $0x4010000000000000
DATA lanesconst<>+168(SB)/8, $0x4010000000000000
DATA lanesconst<>+176(SB)/8, $0x4010000000000000
DATA lanesconst<>+184(SB)/8, $0x4010000000000000
DATA lanesconst<>+192(SB)/8, $0xc010000000000000
DATA lanesconst<>+200(SB)/8, $0xc010000000000000
DATA lanesconst<>+208(SB)/8, $0xc010000000000000
DATA lanesconst<>+216(SB)/8, $0xc010000000000000
DATA lanesconst<>+224(SB)/8, $0x4018000000000000
DATA lanesconst<>+232(SB)/8, $0x4018000000000000
DATA lanesconst<>+240(SB)/8, $0x4018000000000000
DATA lanesconst<>+248(SB)/8, $0x4018000000000000
GLOBL lanesconst<>(SB), RODATA|NOPTR, $256

// func fluxRhoAVX(r, dis, up, u, um, mvp, mvm *float64, d1, t2 float64, groups int)
TEXT ·fluxRhoAVX(SB), NOSPLIT, $0-80
	MOVQ r+0(FP), AX
	MOVQ dis+8(FP), BX
	MOVQ up+16(FP), CX
	MOVQ u+24(FP), DX
	MOVQ um+32(FP), SI
	MOVQ mvp+40(FP), DI
	MOVQ mvm+48(FP), R8
	CMPQ groups+72(FP), $0
	JEQ done
	VBROADCASTSD d1+56(FP), Y0
	VBROADCASTSD t2+64(FP), Y1
loop:
	VMOVUPD 0(CX), Y2
	VMOVUPD lanesconst<>+32(SB), Y3
	VMULPD 0(DX), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD 0(SI), Y2, Y2
	VMULPD Y2, Y0, Y2
	VMOVUPD 0(DI), Y3
	VSUBPD 0(R8), Y3, Y3
	VMULPD Y3, Y1, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD 0(AX), Y2, Y2
	VMOVUPD Y2, 0(AX)
	VMOVUPD 0(AX), Y2
	VSUBPD 0(BX), Y2, Y2
	VMOVUPD Y2, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ groups+72(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func fluxMomAVX(r, dis, up, u, um, wp, w, wm, vp, vm *float64, dm, con2, t2 float64, groups int)
TEXT ·fluxMomAVX(SB), NOSPLIT, $0-112
	MOVQ r+0(FP), AX
	MOVQ dis+8(FP), BX
	MOVQ up+16(FP), CX
	MOVQ u+24(FP), DX
	MOVQ um+32(FP), SI
	MOVQ wp+40(FP), DI
	MOVQ w+48(FP), R8
	MOVQ wm+56(FP), R9
	MOVQ vp+64(FP), R10
	MOVQ vm+72(FP), R11
	CMPQ groups+104(FP), $0
	JEQ done
	VBROADCASTSD dm+80(FP), Y0
	VBROADCASTSD con2+88(FP), Y1
	VBROADCASTSD t2+96(FP), Y2
loop:
	VMOVUPD 0(CX), Y3
	VMOVUPD lanesconst<>+32(SB), Y4
	VMULPD 0(DX), Y4, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD 0(SI), Y3, Y3
	VMULPD Y3, Y0, Y3
	VMOVUPD 0(DI), Y4
	VMOVUPD lanesconst<>+32(SB), Y5
	VMULPD 0(R8), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD 0(R9), Y4, Y4
	VMULPD Y4, Y1, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD 0(CX), Y4
	VMULPD 0(R10), Y4, Y4
	VMOVUPD 0(SI), Y5
	VMULPD 0(R11), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VMULPD Y4, Y2, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD 0(AX), Y3, Y3
	VMOVUPD Y3, 0(AX)
	VMOVUPD 0(AX), Y3
	VSUBPD 0(BX), Y3, Y3
	VMOVUPD Y3, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ groups+104(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func fluxMomAlongAVX(r, dis, up, u, um, vp, v, vm, u4p, u4m, sqp, sqm *float64, dm, con2, con43, t2, c2 float64, groups int)
TEXT ·fluxMomAlongAVX(SB), NOSPLIT, $0-144
	MOVQ r+0(FP), AX
	MOVQ dis+8(FP), BX
	MOVQ up+16(FP), CX
	MOVQ u+24(FP), DX
	MOVQ um+32(FP), SI
	MOVQ vp+40(FP), DI
	MOVQ v+48(FP), R8
	MOVQ vm+56(FP), R9
	MOVQ u4p+64(FP), R10
	MOVQ u4m+72(FP), R11
	MOVQ sqp+80(FP), R12
	MOVQ sqm+88(FP), R13
	CMPQ groups+136(FP), $0
	JEQ done
	VBROADCASTSD dm+96(FP), Y0
	VBROADCASTSD con2+104(FP), Y1
	VBROADCASTSD con43+112(FP), Y2
	VBROADCASTSD t2+120(FP), Y3
	VBROADCASTSD c2+128(FP), Y4
loop:
	VMOVUPD 0(CX), Y5
	VMOVUPD lanesconst<>+32(SB), Y6
	VMULPD 0(DX), Y6, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD 0(SI), Y5, Y5
	VMULPD Y5, Y0, Y5
	VMULPD Y2, Y1, Y6
	VMOVUPD 0(DI), Y7
	VMOVUPD lanesconst<>+32(SB), Y8
	VMULPD 0(R8), Y8, Y8
	VSUBPD Y8, Y7, Y7
	VADDPD 0(R9), Y7, Y7
	VMULPD Y7, Y6, Y6
	VADDPD Y6, Y5, Y5
	VMOVUPD 0(CX), Y6
	VMULPD 0(DI), Y6, Y6
	VMOVUPD 0(SI), Y7
	VMULPD 0(R9), Y7, Y7
	VSUBPD Y7, Y6, Y6
	VMOVUPD 0(R10), Y7
	VSUBPD 0(R12), Y7, Y7
	VSUBPD 0(R11), Y7, Y7
	VADDPD 0(R13), Y7, Y7
	VMULPD Y4, Y7, Y7
	VADDPD Y7, Y6, Y6
	VMULPD Y6, Y3, Y6
	VSUBPD Y6, Y5, Y5
	VADDPD 0(AX), Y5, Y5
	VMOVUPD Y5, 0(AX)
	VMOVUPD 0(AX), Y5
	VSUBPD 0(BX), Y5, Y5
	VMOVUPD Y5, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ groups+136(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func fluxEnergyHeadAVX(t, up, u, um, qp, q, qm, vp, v, vm *float64, d5, con3, con4 float64, groups int)
TEXT ·fluxEnergyHeadAVX(SB), NOSPLIT, $0-112
	MOVQ t+0(FP), AX
	MOVQ up+8(FP), BX
	MOVQ u+16(FP), CX
	MOVQ um+24(FP), DX
	MOVQ qp+32(FP), SI
	MOVQ q+40(FP), DI
	MOVQ qm+48(FP), R8
	MOVQ vp+56(FP), R9
	MOVQ v+64(FP), R10
	MOVQ vm+72(FP), R11
	CMPQ groups+104(FP), $0
	JEQ done
	VBROADCASTSD d5+80(FP), Y0
	VBROADCASTSD con3+88(FP), Y1
	VBROADCASTSD con4+96(FP), Y2
loop:
	VMOVUPD 0(BX), Y3
	VMOVUPD lanesconst<>+32(SB), Y4
	VMULPD 0(CX), Y4, Y4
	VSUBPD Y4, Y3, Y3
	VADDPD 0(DX), Y3, Y3
	VMULPD Y3, Y0, Y3
	VMOVUPD 0(SI), Y4
	VMOVUPD lanesconst<>+32(SB), Y5
	VMULPD 0(DI), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VADDPD 0(R8), Y4, Y4
	VMULPD Y4, Y1, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD 0(R9), Y4
	VMULPD 0(R9), Y4, Y4
	VMOVUPD lanesconst<>+32(SB), Y5
	VMULPD 0(R10), Y5, Y5
	VMULPD 0(R10), Y5, Y5
	VSUBPD Y5, Y4, Y4
	VMOVUPD 0(R11), Y5
	VMULPD 0(R11), Y5, Y5
	VADDPD Y5, Y4, Y4
	VMULPD Y4, Y2, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ groups+104(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func fluxEnergyTailAVX(r, dis, t, gp, u, rhoI, gm, hp, hm, vp, vm *float64, con5, t2 float64, groups int)
TEXT ·fluxEnergyTailAVX(SB), NOSPLIT, $0-112
	MOVQ r+0(FP), AX
	MOVQ dis+8(FP), BX
	MOVQ t+16(FP), CX
	MOVQ gp+24(FP), DX
	MOVQ u+32(FP), SI
	MOVQ rhoI+40(FP), DI
	MOVQ gm+48(FP), R8
	MOVQ hp+56(FP), R9
	MOVQ hm+64(FP), R10
	MOVQ vp+72(FP), R11
	MOVQ vm+80(FP), R12
	CMPQ groups+104(FP), $0
	JEQ done
	VBROADCASTSD con5+88(FP), Y0
	VBROADCASTSD t2+96(FP), Y1
loop:
	VMOVUPD 0(DX), Y2
	VMOVUPD lanesconst<>+32(SB), Y3
	VMULPD 0(SI), Y3, Y3
	VMULPD 0(DI), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD 0(R8), Y2, Y2
	VMULPD Y2, Y0, Y2
	VADDPD 0(CX), Y2, Y2
	VMOVUPD 0(R9), Y3
	VMULPD 0(R11), Y3, Y3
	VMOVUPD 0(R10), Y4
	VMULPD 0(R12), Y4, Y4
	VSUBPD Y4, Y3, Y3
	VMULPD Y3, Y1, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD 0(AX), Y2, Y2
	VMOVUPD Y2, 0(AX)
	VMOVUPD 0(AX), Y2
	VSUBPD 0(BX), Y2, Y2
	VMOVUPD Y2, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ groups+104(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func primAVX(rhoI, us, vs, ws, sq, qs, u0, u1, u2, u3 *float64, groups int)
TEXT ·primAVX(SB), NOSPLIT, $0-88
	MOVQ rhoI+0(FP), AX
	MOVQ us+8(FP), BX
	MOVQ vs+16(FP), CX
	MOVQ ws+24(FP), DX
	MOVQ sq+32(FP), SI
	MOVQ qs+40(FP), DI
	MOVQ u0+48(FP), R8
	MOVQ u1+56(FP), R9
	MOVQ u2+64(FP), R10
	MOVQ u3+72(FP), R11
	CMPQ groups+80(FP), $0
	JEQ done
loop:
	VMOVUPD lanesconst<>+64(SB), Y0
	VDIVPD 0(R8), Y0, Y0
	VMOVUPD Y0, 0(AX)
	VMULPD 0(R9), Y0, Y1
	VMOVUPD Y1, 0(BX)
	VMULPD 0(R10), Y0, Y1
	VMOVUPD Y1, 0(CX)
	VMULPD 0(R11), Y0, Y1
	VMOVUPD Y1, 0(DX)
	VMOVUPD 0(R9), Y1
	VMULPD 0(R9), Y1, Y1
	VMOVUPD 0(R10), Y2
	VMULPD 0(R10), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD 0(R11), Y2
	VMULPD 0(R11), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMULPD lanesconst<>+96(SB), Y1, Y1
	VMULPD Y0, Y1, Y1
	VMOVUPD Y1, 0(SI)
	VMULPD 0(SI), Y0, Y1
	VMOVUPD Y1, 0(DI)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ groups+80(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func primEnergyAVX(ge, he, u4, rhoI, sq *float64, c1, c2 float64, groups int)
TEXT ·primEnergyAVX(SB), NOSPLIT, $0-64
	MOVQ ge+0(FP), AX
	MOVQ he+8(FP), BX
	MOVQ u4+16(FP), CX
	MOVQ rhoI+24(FP), DX
	MOVQ sq+32(FP), SI
	CMPQ groups+56(FP), $0
	JEQ done
	VBROADCASTSD c1+40(FP), Y0
	VBROADCASTSD c2+48(FP), Y1
loop:
	VMOVUPD 0(CX), Y2
	VMULPD 0(DX), Y2, Y2
	VMOVUPD Y2, 0(AX)
	VMULPD 0(CX), Y0, Y2
	VMULPD 0(SI), Y1, Y3
	VSUBPD Y3, Y2, Y2
	VMOVUPD Y2, 0(BX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	DECQ groups+56(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func soundSpeedAVX(speed, u4, rhoI, sq *float64, c1c2 float64, groups int)
TEXT ·soundSpeedAVX(SB), NOSPLIT, $0-48
	MOVQ speed+0(FP), AX
	MOVQ u4+8(FP), BX
	MOVQ rhoI+16(FP), CX
	MOVQ sq+24(FP), DX
	CMPQ groups+40(FP), $0
	JEQ done
	VBROADCASTSD c1c2+32(FP), Y0
loop:
	VMULPD 0(CX), Y0, Y1
	VMOVUPD 0(BX), Y2
	VSUBPD 0(DX), Y2, Y2
	VMULPD Y2, Y1, Y1
	VSQRTPD Y1, Y1
	VMOVUPD Y1, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	DECQ groups+40(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func dissFirstAVX(d, u, u1, u2 *float64, dssp float64, groups int)
TEXT ·dissFirstAVX(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), AX
	MOVQ u+8(FP), BX
	MOVQ u1+16(FP), CX
	MOVQ u2+24(FP), DX
	CMPQ groups+40(FP), $0
	JEQ done
	VBROADCASTSD dssp+32(FP), Y0
loop:
	VMOVUPD lanesconst<>+128(SB), Y1
	VMULPD 0(BX), Y1, Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(CX), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD 0(DX), Y1, Y1
	VMULPD Y1, Y0, Y1
	VMOVUPD Y1, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	DECQ groups+40(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func dissSecondAVX(d, um1, u, u1, u2 *float64, dssp float64, groups int)
TEXT ·dissSecondAVX(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), AX
	MOVQ um1+8(FP), BX
	MOVQ u+16(FP), CX
	MOVQ u1+24(FP), DX
	MOVQ u2+32(FP), SI
	CMPQ groups+48(FP), $0
	JEQ done
	VBROADCASTSD dssp+40(FP), Y0
loop:
	VMOVUPD lanesconst<>+192(SB), Y1
	VMULPD 0(BX), Y1, Y1
	VMOVUPD lanesconst<>+224(SB), Y2
	VMULPD 0(CX), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(DX), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD 0(SI), Y1, Y1
	VMULPD Y1, Y0, Y1
	VMOVUPD Y1, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	DECQ groups+48(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func dissInnerAVX(d, um2, um1, u, u1, u2 *float64, dssp float64, groups int)
TEXT ·dissInnerAVX(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), AX
	MOVQ um2+8(FP), BX
	MOVQ um1+16(FP), CX
	MOVQ u+24(FP), DX
	MOVQ u1+32(FP), SI
	MOVQ u2+40(FP), DI
	CMPQ groups+56(FP), $0
	JEQ done
	VBROADCASTSD dssp+48(FP), Y0
loop:
	VMOVUPD 0(BX), Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(CX), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD lanesconst<>+224(SB), Y2
	VMULPD 0(DX), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(SI), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VADDPD 0(DI), Y1, Y1
	VMULPD Y1, Y0, Y1
	VMOVUPD Y1, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ groups+56(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func dissPenultAVX(d, um2, um1, u, u1 *float64, dssp float64, groups int)
TEXT ·dissPenultAVX(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), AX
	MOVQ um2+8(FP), BX
	MOVQ um1+16(FP), CX
	MOVQ u+24(FP), DX
	MOVQ u1+32(FP), SI
	CMPQ groups+48(FP), $0
	JEQ done
	VBROADCASTSD dssp+40(FP), Y0
loop:
	VMOVUPD 0(BX), Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(CX), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD lanesconst<>+224(SB), Y2
	VMULPD 0(DX), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(SI), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VMULPD Y1, Y0, Y1
	VMOVUPD Y1, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	DECQ groups+48(FP)
	JNE loop
done:
	VZEROUPPER
	RET

// func dissLastAVX(d, um2, um1, u *float64, dssp float64, groups int)
TEXT ·dissLastAVX(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), AX
	MOVQ um2+8(FP), BX
	MOVQ um1+16(FP), CX
	MOVQ u+24(FP), DX
	CMPQ groups+40(FP), $0
	JEQ done
	VBROADCASTSD dssp+32(FP), Y0
loop:
	VMOVUPD 0(BX), Y1
	VMOVUPD lanesconst<>+160(SB), Y2
	VMULPD 0(CX), Y2, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD lanesconst<>+128(SB), Y2
	VMULPD 0(DX), Y2, Y2
	VADDPD Y2, Y1, Y1
	VMULPD Y1, Y0, Y1
	VMOVUPD Y1, 0(AX)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	DECQ groups+40(FP)
	JNE loop
done:
	VZEROUPPER
	RET
