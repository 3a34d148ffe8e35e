#include "textflag.h"

// The wide moves of movers.go, for AVX-512 (simd.Width 8). Each moves
// element c of every cell for row c of rows (nrows slice headers; a nil
// row is skipped): a lane-form cell is stride bytes from the next, its
// element c 64·c bytes in, and a row is addressed as its first element
// plus an element offset. The Go side has checked that every element
// these functions read or write lies in its row, and every row access
// is masked to those elements.

// TRANSPOSE8 transposes the 8×8 doubles in Z0-Z7 (row r in Zr) into
// Z16-Z23 (column t in Z(16+t)), zeroing the lanes of each column that
// the mask k leaves out. Z8-Z15 are clobbered. The unpacks pair rows r
// and r+1 within each 128-bit lane; the first shuffles gather columns
// {0,4}, {2,6}, {1,5} and {3,7} of rows 0-3 and 4-7; the second join
// the two halves.
#define TRANSPOSE8(k) \
	VUNPCKLPD Z1, Z0, Z8 \
	VUNPCKHPD Z1, Z0, Z9 \
	VUNPCKLPD Z3, Z2, Z10 \
	VUNPCKHPD Z3, Z2, Z11 \
	VUNPCKLPD Z5, Z4, Z12 \
	VUNPCKHPD Z5, Z4, Z13 \
	VUNPCKLPD Z7, Z6, Z14 \
	VUNPCKHPD Z7, Z6, Z15 \
	VSHUFF64X2 $0x88, Z10, Z8, Z0 \
	VSHUFF64X2 $0xdd, Z10, Z8, Z1 \
	VSHUFF64X2 $0x88, Z11, Z9, Z2 \
	VSHUFF64X2 $0xdd, Z11, Z9, Z3 \
	VSHUFF64X2 $0x88, Z14, Z12, Z4 \
	VSHUFF64X2 $0xdd, Z14, Z12, Z5 \
	VSHUFF64X2 $0x88, Z15, Z13, Z6 \
	VSHUFF64X2 $0xdd, Z15, Z13, Z7 \
	VSHUFF64X2.Z $0x88, Z4, Z0, k, Z16 \
	VSHUFF64X2.Z $0x88, Z6, Z2, k, Z17 \
	VSHUFF64X2.Z $0x88, Z5, Z1, k, Z18 \
	VSHUFF64X2.Z $0x88, Z7, Z3, k, Z19 \
	VSHUFF64X2.Z $0xdd, Z4, Z0, k, Z20 \
	VSHUFF64X2.Z $0xdd, Z6, Z2, k, Z21 \
	VSHUFF64X2.Z $0xdd, Z5, Z1, k, Z22 \
	VSHUFF64X2.Z $0xdd, Z7, Z3, k, Z23

// LOWMASK sets k to the lowest CX lanes, CX from 1 to 8. Clobbers r.
#define LOWMASK(r, k) \
	MOVQ  $1, r \
	SHLQ  CX, r \
	DECQ  r \
	KMOVB r, k

// CELLMASK sets K1 to the cells of the tile starting AX cells before
// the end: all eight, or the AX that are left. Clobbers CX and R8.
#define CELLMASK \
	MOVQ AX, CX \
	CMPQ AX, $8 \
	JLT  2(PC) \
	MOVQ $8, CX \
	LOWMASK(R8, K1)

// RUNMASKS sets K1 to lanes 0 to split-1 and K2 to lanes split to
// live-1 (none if split = live): the low split lanes, then the low
// live lanes without them. Clobbers CX, R8 and R9.
#define RUNMASKS \
	MOVQ  split+48(FP), CX \
	LOWMASK(R8, K1) \
	MOVQ  live+56(FP), CX \
	MOVQ  $1, R9 \
	SHLQ  CX, R9 \
	DECQ  R9 \
	XORQ  R8, R9 \
	KMOVB R9, K2

// func tileToLanes(dst *[8]float64, stride uintptr, rows *[]float64, nrows int, off *[8]int, live, cells int)
TEXT ·tileToLanes(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), R12 // element c of the first cell
	MOVQ stride+8(FP), DX
	MOVQ rows+16(FP), R10
	MOVQ nrows+24(FP), R11
	MOVQ off+32(FP), SI
	MOVQ live+40(FP), CX
	LOWMASK(R8, K2) // the live lanes

row:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    nextrow
	MOVQ  R12, DI
	MOVQ  cells+48(FP), AX

tile:
	CELLMASK
	MOVQ 0(SI), R8
	VMOVUPD.Z (BX)(R8*8), K1, Z0
	MOVQ 8(SI), R9
	VMOVUPD.Z (BX)(R9*8), K1, Z1
	MOVQ 16(SI), R8
	VMOVUPD.Z (BX)(R8*8), K1, Z2
	MOVQ 24(SI), R9
	VMOVUPD.Z (BX)(R9*8), K1, Z3
	MOVQ 32(SI), R8
	VMOVUPD.Z (BX)(R8*8), K1, Z4
	MOVQ 40(SI), R9
	VMOVUPD.Z (BX)(R9*8), K1, Z5
	MOVQ 48(SI), R8
	VMOVUPD.Z (BX)(R8*8), K1, Z6
	MOVQ 56(SI), R9
	VMOVUPD.Z (BX)(R9*8), K1, Z7
	TRANSPOSE8(K2)
	CMPQ AX, $8
	JLT  part

	VMOVUPD Z16, (DI)
	VMOVUPD Z17, (DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPD Z18, (DI)
	VMOVUPD Z19, (DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPD Z20, (DI)
	VMOVUPD Z21, (DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	VMOVUPD Z22, (DI)
	VMOVUPD Z23, (DI)(DX*1)
	LEAQ    (DI)(DX*2), DI
	ADDQ    $64, BX
	SUBQ    $8, AX
	JNZ     tile

nextrow:
	ADDQ $24, R10
	ADDQ $64, R12
	DECQ R11
	JNZ  row
	VZEROUPPER
	RET

part: // the last 1 to 7 cells
	VMOVUPD Z16, (DI)
	CMPQ    AX, $1
	JEQ     nextrow
	ADDQ    DX, DI
	VMOVUPD Z17, (DI)
	CMPQ    AX, $2
	JEQ     nextrow
	ADDQ    DX, DI
	VMOVUPD Z18, (DI)
	CMPQ    AX, $3
	JEQ     nextrow
	ADDQ    DX, DI
	VMOVUPD Z19, (DI)
	CMPQ    AX, $4
	JEQ     nextrow
	ADDQ    DX, DI
	VMOVUPD Z20, (DI)
	CMPQ    AX, $5
	JEQ     nextrow
	ADDQ    DX, DI
	VMOVUPD Z21, (DI)
	CMPQ    AX, $6
	JEQ     nextrow
	ADDQ    DX, DI
	VMOVUPD Z22, (DI)
	JMP     nextrow

// func tileFromLanes(rows *[]float64, nrows int, src *[8]float64, stride uintptr, off *[8]int, live, cells int)
TEXT ·tileFromLanes(SB), NOSPLIT, $0-56
	MOVQ rows+0(FP), R10
	MOVQ nrows+8(FP), R11
	MOVQ src+16(FP), R12 // element c of the first cell
	MOVQ stride+24(FP), DX
	MOVQ off+32(FP), SI
	MOVQ live+40(FP), R13
	KXNORB K2, K2, K2 // every element of a transposed row

row:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    nextrow
	MOVQ  R12, DI
	MOVQ  cells+48(FP), AX

tile:
	CELLMASK
	CMPQ AX, $8
	JLT  part

	VMOVUPD (DI), Z0
	VMOVUPD (DI)(DX*1), Z1
	LEAQ    (DI)(DX*2), DI
	VMOVUPD (DI), Z2
	VMOVUPD (DI)(DX*1), Z3
	LEAQ    (DI)(DX*2), DI
	VMOVUPD (DI), Z4
	VMOVUPD (DI)(DX*1), Z5
	LEAQ    (DI)(DX*2), DI
	VMOVUPD (DI), Z6
	VMOVUPD (DI)(DX*1), Z7
	LEAQ    (DI)(DX*2), DI

store:
	// Row q of the tile goes to lane q's line, the cells in K1, for the
	// live lanes only.
	TRANSPOSE8(K2)
	MOVQ    0(SI), R8
	VMOVUPD Z16, K1, (BX)(R8*8)
	CMPQ    R13, $1
	JEQ     next
	MOVQ    8(SI), R8
	VMOVUPD Z17, K1, (BX)(R8*8)
	CMPQ    R13, $2
	JEQ     next
	MOVQ    16(SI), R8
	VMOVUPD Z18, K1, (BX)(R8*8)
	CMPQ    R13, $3
	JEQ     next
	MOVQ    24(SI), R8
	VMOVUPD Z19, K1, (BX)(R8*8)
	CMPQ    R13, $4
	JEQ     next
	MOVQ    32(SI), R8
	VMOVUPD Z20, K1, (BX)(R8*8)
	CMPQ    R13, $5
	JEQ     next
	MOVQ    40(SI), R8
	VMOVUPD Z21, K1, (BX)(R8*8)
	CMPQ    R13, $6
	JEQ     next
	MOVQ    48(SI), R8
	VMOVUPD Z22, K1, (BX)(R8*8)
	CMPQ    R13, $7
	JEQ     next
	MOVQ    56(SI), R8
	VMOVUPD Z23, K1, (BX)(R8*8)

next:
	ADDQ $64, BX
	SUBQ $8, AX
	JGT  tile

nextrow:
	ADDQ $24, R10
	ADDQ $64, R12
	DECQ R11
	JNZ  row
	VZEROUPPER
	RET

part: // the last 1 to 7 cells; the columns past them are not stored
	VMOVUPD (DI), Z0
	CMPQ    AX, $1
	JEQ     store
	ADDQ    DX, DI
	VMOVUPD (DI), Z1
	CMPQ    AX, $2
	JEQ     store
	ADDQ    DX, DI
	VMOVUPD (DI), Z2
	CMPQ    AX, $3
	JEQ     store
	ADDQ    DX, DI
	VMOVUPD (DI), Z3
	CMPQ    AX, $4
	JEQ     store
	ADDQ    DX, DI
	VMOVUPD (DI), Z4
	CMPQ    AX, $5
	JEQ     store
	ADDQ    DX, DI
	VMOVUPD (DI), Z5
	CMPQ    AX, $6
	JEQ     store
	ADDQ    DX, DI
	VMOVUPD (DI), Z6
	JMP     store

// func runsToLanes(dst *[8]float64, stride uintptr, rows *[]float64, nrows, first, second, split, live, step, cells int)
TEXT ·runsToLanes(SB), NOSPLIT, $0-80
	RUNMASKS
	MOVQ dst+0(FP), R12 // element c of the first cell
	MOVQ stride+8(FP), DX
	MOVQ rows+16(FP), R13
	MOVQ nrows+24(FP), R9
	MOVQ step+64(FP), R11
	SHLQ $3, R11

row:
	MOVQ  (R13), BX
	TESTQ BX, BX
	JZ    nextrow
	MOVQ  first+32(FP), SI
	LEAQ  (BX)(SI*8), SI // lane 0's element of the first cell
	MOVQ  second+40(FP), R10
	LEAQ  (BX)(R10*8), R10 // where lane 0's would be in the second run
	MOVQ  R12, DI
	MOVQ  cells+72(FP), AX

cell:
	VMOVUPD.Z (SI), K1, Z0
	VMOVUPD   (R10), K2, Z0
	VMOVUPD   Z0, (DI)
	ADDQ      R11, SI
	ADDQ      R11, R10
	ADDQ      DX, DI
	DECQ      AX
	JNZ       cell

nextrow:
	ADDQ $24, R13
	ADDQ $64, R12
	DECQ R9
	JNZ  row
	VZEROUPPER
	RET

// func runsFromLanes(rows *[]float64, nrows int, src *[8]float64, stride uintptr, first, second, split, live, step, cells int)
TEXT ·runsFromLanes(SB), NOSPLIT, $0-80
	RUNMASKS
	MOVQ rows+0(FP), R13
	MOVQ nrows+8(FP), R9
	MOVQ src+16(FP), R12 // element c of the first cell
	MOVQ stride+24(FP), DX
	MOVQ step+64(FP), R11
	SHLQ $3, R11

row:
	MOVQ  (R13), BX
	TESTQ BX, BX
	JZ    nextrow
	MOVQ  first+32(FP), SI
	LEAQ  (BX)(SI*8), SI
	MOVQ  second+40(FP), R10
	LEAQ  (BX)(R10*8), R10
	MOVQ  R12, DI
	MOVQ  cells+72(FP), AX

cell:
	VMOVUPD (DI), Z0
	VMOVUPD Z0, K1, (SI)
	VMOVUPD Z0, K2, (R10)
	ADDQ    R11, SI
	ADDQ    R11, R10
	ADDQ    DX, DI
	DECQ    AX
	JNZ     cell

nextrow:
	ADDQ $24, R13
	ADDQ $64, R12
	DECQ R9
	JNZ  row
	VZEROUPPER
	RET
