#include "textflag.h"

// Four-lane kernels behind ExpScaled and SqDistRows (vec.go). Each lane
// performs exactly the instruction sequence of the scalar code it stands in
// for, so every result is the scalar result bit for bit.

// The constants of math.archExp (src/math/exp_amd64.s), written with the
// same literals so the assembler rounds them to the same float64s.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

DATA expc<>+0(SB)/8, $0.5
DATA expc<>+8(SB)/8, $1.0
DATA expc<>+16(SB)/8, $2.0
DATA expc<>+24(SB)/8, $1.6666666666666666667e-1
DATA expc<>+32(SB)/8, $4.1666666666666666667e-2
DATA expc<>+40(SB)/8, $8.3333333333333333333e-3
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3
DATA expc<>+56(SB)/8, $1.9841269841269841270e-4
DATA expc<>+64(SB)/8, $2.4801587301587301587e-5
DATA expc<>+72(SB)/8, $LOG2E
DATA expc<>+80(SB)/8, $LN2U
DATA expc<>+88(SB)/8, $LN2L
DATA expc<>+96(SB)/8, $0.0625
DATA expc<>+104(SB)/8, $-708.0
DATA expc<>+112(SB)/8, $709.0
DATA expc<>+120(SB)/4, $1023
GLOBL expc<>(SB), RODATA|NOPTR, $124

// func expScaledVec(x []float64, s float64) int
//
// Every lane replays the avxfma branch of math.archExp. Inside [−708, 709]
// archExp takes none of its overflow, denormal or non-finite branches, so a
// group with a lane outside it (NaN and ±Inf included) is left to the caller.
TEXT ·expScaledVec(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $~3, CX
	VBROADCASTSD s+24(FP), Y15
	VBROADCASTSD expc<>+104(SB), Y14 // −708
	VBROADCASTSD expc<>+112(SB), Y13 // 709
	VBROADCASTSD expc<>+72(SB), Y12  // LOG2E
	VBROADCASTSD expc<>+80(SB), Y11  // LN2U
	VBROADCASTSD expc<>+88(SB), Y10  // LN2L
	VBROADCASTSD expc<>+96(SB), Y9   // 0.0625
	VBROADCASTSD expc<>+64(SB), Y8   // c8
	VBROADCASTSD expc<>+16(SB), Y7   // 2.0
	VBROADCASTSD expc<>+8(SB), Y6    // 1.0
	VPBROADCASTD expc<>+120(SB), X5  // exponent bias
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMULPD (SI)(AX*8), Y15, Y0 // t = s·x
	VCMPPD $0x1d, Y14, Y0, Y1  // t ≥ −708, ordered
	VCMPPD $0x12, Y13, Y0, Y2  // t ≤ 709, ordered
	VANDPD Y1, Y2, Y1
	VMOVMSKPD Y1, DX
	CMPQ DX, $15
	JNE  done

	// k = round(t·LOG2E); r = (t − k·LN2U − k·LN2L)/16, each step fused.
	VMULPD Y12, Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y11, Y1, Y0
	VFNMADD231PD Y10, Y1, Y0
	VMULPD Y9, Y0, Y0

	// Taylor polynomial in r, Horner order, one fused step per coefficient.
	VMOVAPD Y8, Y1
	VBROADCASTSD expc<>+56(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VBROADCASTSD expc<>+48(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VBROADCASTSD expc<>+40(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VBROADCASTSD expc<>+32(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VBROADCASTSD expc<>+24(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VBROADCASTSD expc<>+0(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VFMADD213PD Y6, Y0, Y1
	VMULPD Y1, Y0, Y0

	// Undo the 1/16 by squaring four times: e ← e·(e+2), the last fused
	// with the final +1.
	VADDPD Y7, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y7, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y7, Y0, Y1
	VMULPD Y1, Y0, Y0
	VADDPD Y7, Y0, Y1
	VFMADD213PD Y6, Y1, Y0

	// Multiply by 2**k, built from the biased exponent.
	VPADDD X5, X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ $52, Y2, Y2
	VMULPD Y2, Y0, Y0
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ $4, AX
	JMP  loop

done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func sqDistRowsVec(x, dense []float64, m int, rows []int32, out []float64) int
//
// Rows go two at a time, their accumulator chains interleaved; a row's four
// lanes are SqDist's accumulators s0..s3, combined (s0+s1)+(s2+s3) before
// its sequential tail. A row index outside [0, m) ends the call.
TEXT ·sqDistRowsVec(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dense_base+24(FP), DI
	MOVQ rows_base+56(FP), R9
	MOVQ out_base+80(FP), R10
	MOVQ out_len+88(FP), R11
	MOVQ CX, R8
	SHLQ $3, R8 // row stride in bytes
	MOVQ CX, R12
	ANDQ $~3, R12
	XORQ R13, R13

pair:
	LEAQ 2(R13), AX
	CMPQ AX, R11
	JGT  single
	MOVQ R13, AX
	LEAQ 1(R13), DX
	TESTQ R9, R9
	JZ   pairat
	MOVLQSX (R9)(R13*4), AX
	MOVLQSX 4(R9)(R13*4), DX

pairat:
	CMPQ AX, m+48(FP)
	JAE  done
	CMPQ DX, m+48(FP)
	JAE  done
	IMULQ R8, AX
	ADDQ DI, AX
	IMULQ R8, DX
	ADDQ DI, DX
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	XORQ BX, BX
	CMPQ BX, R12
	JGE  pairsum

pairquad:
	VMOVUPD (SI)(BX*8), Y4
	VSUBPD (AX)(BX*8), Y4, Y1
	VSUBPD (DX)(BX*8), Y4, Y3
	VMULPD Y1, Y1, Y1
	VMULPD Y3, Y3, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	ADDQ $4, BX
	CMPQ BX, R12
	JLT  pairquad

pairsum:
	VEXTRACTF128 $1, Y0, X1
	VHADDPD X1, X0, X0 // s0+s1, s2+s3
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y2, X3
	VHADDPD X3, X2, X2
	VHADDPD X2, X2, X2

pairtail:
	CMPQ BX, CX
	JGE  pairstore
	VMOVSD (SI)(BX*8), X4
	VSUBSD (AX)(BX*8), X4, X1
	VSUBSD (DX)(BX*8), X4, X3
	VMULSD X1, X1, X1
	VMULSD X3, X3, X3
	VADDSD X1, X0, X0
	VADDSD X3, X2, X2
	INCQ BX
	JMP  pairtail

pairstore:
	VMOVSD X0, (R10)(R13*8)
	VMOVSD X2, 8(R10)(R13*8)
	ADDQ $2, R13
	JMP  pair

single:
	CMPQ R13, R11
	JGE  done
	MOVQ R13, AX
	TESTQ R9, R9
	JZ   singleat
	MOVLQSX (R9)(R13*4), AX

singleat:
	CMPQ AX, m+48(FP)
	JAE  done
	IMULQ R8, AX
	ADDQ DI, AX
	VXORPD Y0, Y0, Y0
	XORQ BX, BX
	CMPQ BX, R12
	JGE  singlesum

singlequad:
	VMOVUPD (SI)(BX*8), Y1
	VSUBPD (AX)(BX*8), Y1, Y1
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $4, BX
	CMPQ BX, R12
	JLT  singlequad

singlesum:
	VEXTRACTF128 $1, Y0, X1
	VHADDPD X1, X0, X0
	VHADDPD X0, X0, X0

singletail:
	CMPQ BX, CX
	JGE  singlestore
	VMOVSD (SI)(BX*8), X1
	VSUBSD (AX)(BX*8), X1, X1
	VMULSD X1, X1, X1
	VADDSD X1, X0, X0
	INCQ BX
	JMP  singletail

singlestore:
	VMOVSD X0, (R10)(R13*8)
	INCQ R13

done:
	MOVQ R13, ret+104(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
