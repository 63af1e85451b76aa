#include "textflag.h"

// Four-lane kernels behind ExpScaled and UpdateScan (vec.go) and behind
// Dot4, MulTile's and SqDistTile's dense panels and one-column tiles,
// ExpDistTile's whole-fill panels and ExpDistSum's query panels (tile.go). Each lane performs exactly the
// instruction sequence of the scalar code it stands in for, so every result
// is the scalar result bit for bit; UpdateScan's scan keeps each lane's
// extremes, and vec.go finds their first positions from the blocks the lanes
// record, as the loop's strict comparisons would. The base64 decode behind
// DecodeBase64F64 (encode.go) writes encoding/base64's bytes, and the scan
// behind QuotedSpan finds the bytes a byte loop would.

// The constants of math.archExp (src/math/exp_amd64.s), written with the
// same literals so the assembler rounds them to the same float64s, each four
// times over: a 32-byte row is one lane operand, and its first 8 bytes a
// VBROADCASTSD source.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

#define EXPV(off, v) \
	DATA expv<>+off+0(SB)/8, v; \
	DATA expv<>+off+8(SB)/8, v; \
	DATA expv<>+off+16(SB)/8, v; \
	DATA expv<>+off+24(SB)/8, v

EXPV(0, $0.5)
EXPV(32, $1.0)
EXPV(64, $2.0)
EXPV(96, $1.6666666666666666667e-1)
EXPV(128, $4.1666666666666666667e-2)
EXPV(160, $8.3333333333333333333e-3)
EXPV(192, $1.3888888888888888889e-3)
EXPV(224, $1.9841269841269841270e-4)
EXPV(256, $2.4801587301587301587e-5)
EXPV(288, $LOG2E)
EXPV(320, $LN2U)
EXPV(352, $LN2L)
EXPV(384, $0.0625)
EXPV(416, $-708.0)
EXPV(448, $709.0)
DATA expv<>+480(SB)/4, $1023
DATA expv<>+484(SB)/4, $1023
DATA expv<>+488(SB)/4, $1023
DATA expv<>+492(SB)/4, $1023
GLOBL expv<>(SB), RODATA|NOPTR, $496

// EXP_IN leaves in t1 a mask of the lanes of y in [−708, 709] (ordered: a
// NaN fails), where archExp takes none of its overflow, denormal or
// non-finite branches. t2 clobbered.
#define EXP_IN(y, t1, t2) \
	VCMPPD $0x1d, expv<>+416(SB), y, t1; \
	VCMPPD $0x12, expv<>+448(SB), y, t2; \
	VANDPD t1, t2, t1

// EXP_LANES replaces each lane t of y with exp(t), replaying the avxfma
// branch of math.archExp: k = round(t·LOG2E); r = (t − k·LN2U − k·LN2L)/16,
// each step fused; the Taylor polynomial in r, Horner order, one fused step
// per coefficient; the 1/16 undone by squaring four times, e ← e·(e+2), the
// last fused with the final +1; then the product with 2**k, built from the
// biased exponent. t1 and t2 (whose low half is x2) clobbered.
#define EXP_LANES(y, t1, t2, x2) \
	VMULPD expv<>+288(SB), y, t1; \
	VCVTPD2DQY t1, x2; \
	VCVTDQ2PD x2, t1; \
	VFNMADD231PD expv<>+320(SB), t1, y; \
	VFNMADD231PD expv<>+352(SB), t1, y; \
	VMULPD expv<>+384(SB), y, y; \
	VMOVUPD expv<>+256(SB), t1; \
	VFMADD213PD expv<>+224(SB), y, t1; \
	VFMADD213PD expv<>+192(SB), y, t1; \
	VFMADD213PD expv<>+160(SB), y, t1; \
	VFMADD213PD expv<>+128(SB), y, t1; \
	VFMADD213PD expv<>+96(SB), y, t1; \
	VFMADD213PD expv<>+0(SB), y, t1; \
	VFMADD213PD expv<>+32(SB), y, t1; \
	VMULPD t1, y, y; \
	VADDPD expv<>+64(SB), y, t1; \
	VMULPD t1, y, y; \
	VADDPD expv<>+64(SB), y, t1; \
	VMULPD t1, y, y; \
	VADDPD expv<>+64(SB), y, t1; \
	VMULPD t1, y, y; \
	VADDPD expv<>+64(SB), y, t1; \
	VFMADD213PD expv<>+32(SB), t1, y; \
	VPADDD expv<>+480(SB), x2, x2; \
	VPMOVZXDQ x2, t2; \
	VPSLLQ $52, t2, t2; \
	VMULPD t2, y, y

// func expScaledVec(x []float64, s float64) int
//
// Every lane replays math.archExp (EXP_LANES); a group with a lane outside
// [−708, 709], NaN and ±Inf included, is left to the caller.
TEXT ·expScaledVec(SB), NOSPLIT, $0-40
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	ANDQ $~3, CX
	VBROADCASTSD s+24(FP), Y15
	XORQ AX, AX

loop:
	CMPQ AX, CX
	JGE  done
	VMULPD (SI)(AX*8), Y15, Y0 // t = s·x
	EXP_IN(Y0, Y2, Y3)
	VMOVMSKPD Y2, DX
	CMPQ DX, $15
	JNE  done
	EXP_LANES(Y0, Y1, Y2, X2)
	VMOVUPD Y0, (SI)(AX*8)
	ADDQ $4, AX
	JMP  loop

done:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func dotRowsVec(x, dense []float64, m int, rows []int, out, norms []float64, xsq float64) int
//
// Rows go four at a time against the one x: each quad of x is loaded once
// and multiplied into four accumulators, one per row, whose lanes are Dot's
// s0..s3, fed by a separate VMULPD and VADDPD, never fused. The combine and
// the tail are dot4PanelVec's with x as the shared vector: two VHADDPDs and a
// 128-bit transpose give the four (s0+s1)+(s2+s3) at once, and each len%4
// tail element is one broadcast of x[i] against the four rows' elements.
// With norms, each output is then SqDistOf(xsq, norms[row], dot):
// (xsq + norm) − (dot + dot), and VMAXPD's (0 > d ? 0 : d) for the clamp,
// which passes NaN and −0 through as the Go comparison does. The last
// len(out)%4 rows, and the rows of a quad holding an index outside [0, m),
// go one at a time; a row index outside [0, m) ends the call.
TEXT ·dotRowsVec(SB), NOSPLIT, $0-144
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dense_base+24(FP), DI
	MOVQ rows_base+56(FP), R9
	MOVQ out_base+80(FP), R10
	MOVQ out_len+88(FP), R11
	MOVQ CX, R12
	ANDQ $~3, R12
	XORQ R13, R13

quad:
	LEAQ 4(R13), AX
	CMPQ AX, R11
	JGT  single
	MOVQ R13, AX
	LEAQ 1(R13), DX
	LEAQ 2(R13), R8
	LEAQ 3(R13), R14
	TESTQ R9, R9
	JZ   quadat
	MOVQ (R9)(R13*8), AX
	MOVQ 8(R9)(R13*8), DX
	MOVQ 16(R9)(R13*8), R8
	MOVQ 24(R9)(R13*8), R14

quadat:
	CMPQ AX, m+48(FP)
	JAE  single
	CMPQ DX, m+48(FP)
	JAE  single
	CMPQ R8, m+48(FP)
	JAE  single
	CMPQ R14, m+48(FP)
	JAE  single
	MOVQ norms_len+112(FP), BX
	TESTQ BX, BX
	JZ   quadrows
	MOVQ norms_base+104(FP), BX
	VMOVSD (BX)(AX*8), X9
	VMOVHPD (BX)(DX*8), X9, X9
	VMOVSD (BX)(R8*8), X10
	VMOVHPD (BX)(R14*8), X10, X10
	VINSERTF128 $1, X10, Y9, Y9 // the four rows' norms

quadrows:
	IMULQ CX, AX
	LEAQ (DI)(AX*8), AX
	IMULQ CX, DX
	LEAQ (DI)(DX*8), DX
	IMULQ CX, R8
	LEAQ (DI)(R8*8), R8
	IMULQ CX, R14
	LEAQ (DI)(R14*8), R14
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ BX, BX
	CMPQ BX, R12
	JGE  quadsum

quadloop:
	VMOVUPD (SI)(BX*8), Y4
	VMULPD (AX)(BX*8), Y4, Y5
	VMULPD (DX)(BX*8), Y4, Y6
	VMULPD (R8)(BX*8), Y4, Y7
	VMULPD (R14)(BX*8), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $4, BX
	CMPQ BX, R12
	JLT  quadloop

quadsum:
	VHADDPD Y1, Y0, Y0           // s0+s1 and s2+s3 of rows 0, 1
	VHADDPD Y3, Y2, Y2           // and of rows 2, 3
	VPERM2F128 $0x20, Y2, Y0, Y1 // the four s0+s1
	VPERM2F128 $0x31, Y2, Y0, Y3 // the four s2+s3
	VADDPD Y3, Y1, Y0

quadtail:
	CMPQ BX, CX
	JGE  quadstore
	VBROADCASTSD (SI)(BX*8), Y4
	VMOVSD (AX)(BX*8), X5
	VMOVHPD (DX)(BX*8), X5, X5
	VMOVSD (R8)(BX*8), X6
	VMOVHPD (R14)(BX*8), X6, X6
	VINSERTF128 $1, X6, Y5, Y5
	VMULPD Y5, Y4, Y5
	VADDPD Y5, Y0, Y0
	INCQ BX
	JMP  quadtail

quadstore:
	MOVQ norms_len+112(FP), BX
	TESTQ BX, BX
	JZ   quadput
	VADDPD Y0, Y0, Y0 // 2·dot
	VBROADCASTSD xsq+128(FP), Y10
	VADDPD Y9, Y10, Y10 // xsq + norm
	VSUBPD Y0, Y10, Y0
	VXORPD Y10, Y10, Y10
	VMAXPD Y0, Y10, Y0

quadput:
	VMOVUPD Y0, (R10)(R13*8)
	ADDQ $4, R13
	JMP  quad

single:
	CMPQ R13, R11
	JGE  done
	MOVQ R13, AX
	TESTQ R9, R9
	JZ   singleat
	MOVQ (R9)(R13*8), AX

singleat:
	CMPQ AX, m+48(FP)
	JAE  done
	IMULQ CX, AX
	LEAQ (DI)(AX*8), AX
	VXORPD Y0, Y0, Y0
	XORQ BX, BX
	CMPQ BX, R12
	JGE  singlesum

singlequad:
	VMOVUPD (SI)(BX*8), Y1
	VMULPD (AX)(BX*8), Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $4, BX
	CMPQ BX, R12
	JLT  singlequad

singlesum:
	VEXTRACTF128 $1, Y0, X1
	VHADDPD X1, X0, X0 // s0+s1, s2+s3
	VHADDPD X0, X0, X0

singletail:
	CMPQ BX, CX
	JGE  singlestore
	VMOVSD (SI)(BX*8), X1
	VMULSD (AX)(BX*8), X1, X1
	VADDSD X1, X0, X0
	INCQ BX
	JMP  singletail

singlestore:
	MOVQ norms_len+112(FP), BX
	TESTQ BX, BX
	JZ   singleput
	MOVQ norms_base+104(FP), BX
	MOVQ R13, DX
	TESTQ R9, R9
	JZ   singlenorm
	MOVQ (R9)(R13*8), DX

singlenorm:
	VADDSD X0, X0, X0
	VMOVSD xsq+128(FP), X1
	VADDSD (BX)(DX*8), X1, X1
	VSUBSD X0, X1, X0
	VXORPD X1, X1, X1
	VMAXSD X0, X1, X0

singleput:
	VMOVSD X0, (R10)(R13*8)
	INCQ R13
	JMP  single

done:
	MOVQ R13, ret+136(FP)
	VZEROUPPER
	RET

DATA scanc<>+0(SB)/8, $0x7ff0000000000000 // +Inf, an empty high side's best
DATA scanc<>+8(SB)/8, $0xfff0000000000000 // −Inf, an empty low side's best
DATA scanc<>+16(SB)/8, $16                // a block's length, four times
DATA scanc<>+24(SB)/8, $16
DATA scanc<>+32(SB)/8, $16
DATA scanc<>+40(SB)/8, $16
GLOBL scanc<>(SB), RODATA|NOPTR, $48

// func updateScanVec(f, rh, rl, outHigh, outLow []float64, ch, cl float64, e *laneExtremes)
//
// v = (f + ch·rh) + cl·rl with separate multiplies and adds, never fused, as
// the Go compiler emits them. Lane j takes the indices k ≡ j (mod 4) and
// keeps only its extreme test values, not their positions, a 16-element
// block at a time. A high test value v + outHigh enters the block's minimum
// through VMINPD with the minimum so far as the second operand, which
// returns that operand on a tie and on a NaN: a NaN never enters. Quads 0
// and 2 of a block go to one running minimum and quads 1 and 3 to another,
// each started against +Inf, so two chains run at once. A low test value
// v − outLow enters the block's maximum through VMAXPD likewise. At the
// block's end a lane's best moves only where the block's extreme is strictly
// better (an ordered compare), and those lanes record the block's first
// index: the block in which each lane's best first appears. The last block
// is the one to three quads left before the len%4 tail, taken a quad at a
// time into one chain. No branch depends on the data.
//
// UPDATE_SCAN_QUAD(off, hsrc, hi, lsrc, lo) runs the quad at f[AX:] + off
// bytes, its high test values into hi = min(them, hsrc) and its low ones
// into lo = max(them, lsrc).
#define UPDATE_SCAN_QUAD(off, hsrc, hi, lsrc, lo) \
	VMULPD off(DI)(AX*8), Y15, Y1; \
	VADDPD off(SI)(AX*8), Y1, Y0; \
	VMULPD off(R8)(AX*8), Y14, Y2; \
	VADDPD Y2, Y0, Y0; \
	VMOVUPD Y0, off(SI)(AX*8); \
	VADDPD off(R9)(AX*8), Y0, Y1; \
	VSUBPD off(R10)(AX*8), Y0, Y2; \
	VMINPD hsrc, Y1, hi; \
	VMAXPD lsrc, Y2, lo

// SCAN_BLOCK_END moves the lanes' bests (Y12, Y8) to the block's extremes
// (Y10, Y6) where those are strictly better, and records there the block's
// first index (Y13) as the lanes' blocks (Y11, Y7).
#define SCAN_BLOCK_END \
	VCMPPD $0x11, Y12, Y10, Y1; \
	VMINPD Y12, Y10, Y12; \
	VBLENDVPD Y1, Y13, Y11, Y11; \
	VCMPPD $0x11, Y6, Y8, Y2; \
	VMAXPD Y8, Y6, Y8; \
	VBLENDVPD Y2, Y13, Y7, Y7

TEXT ·updateScanVec(SB), NOSPLIT, $0-144
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), CX
	MOVQ rh_base+24(FP), DI
	MOVQ rl_base+48(FP), R8
	MOVQ outHigh_base+72(FP), R9
	MOVQ outLow_base+96(FP), R10
	MOVQ e+136(FP), R11
	MOVQ CX, DX
	ANDQ $~3, DX
	ANDQ $~15, CX
	VBROADCASTSD ch+120(FP), Y15
	VBROADCASTSD cl+128(FP), Y14
	VBROADCASTSD scanc<>+0(SB), Y4 // +Inf
	VBROADCASTSD scanc<>+8(SB), Y3 // −Inf
	VMOVAPD Y4, Y12                // the lanes' best high
	VMOVAPD Y3, Y8                 // and low
	VPCMPEQQ Y11, Y11, Y11         // their blocks: −1, none yet
	VMOVDQA Y11, Y7
	VPXOR Y13, Y13, Y13            // the block's first index
	XORQ AX, AX

scan:
	CMPQ AX, CX
	JGE  scandone
	UPDATE_SCAN_QUAD(0, Y4, Y10, Y3, Y6)
	UPDATE_SCAN_QUAD(32, Y4, Y9, Y3, Y5)
	UPDATE_SCAN_QUAD(64, Y10, Y10, Y6, Y6)
	UPDATE_SCAN_QUAD(96, Y9, Y9, Y5, Y5)
	VMINPD Y9, Y10, Y10 // the block's minima
	VMAXPD Y5, Y6, Y6   // and maxima
	SCAN_BLOCK_END
	VPADDQ scanc<>+16(SB), Y13, Y13
	ADDQ $16, AX
	JMP  scan

scandone:
	CMPQ AX, DX
	JGE  store
	VMOVAPD Y4, Y10
	VMOVAPD Y3, Y6

lastblock:
	UPDATE_SCAN_QUAD(0, Y10, Y10, Y6, Y6)
	ADDQ $4, AX
	CMPQ AX, DX
	JLT  lastblock
	SCAN_BLOCK_END

store:
	VMOVUPD Y12, 0(R11)
	VMOVUPD Y8, 32(R11)
	VMOVDQU Y11, 64(R11)
	VMOVDQU Y7, 96(R11)
	VZEROUPPER
	RET

// func dot4PanelVec(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, xn, bn []float64)
//
// Two columns a step (DOT2_COLUMNS) and a last odd column alone
// (DOT4_COLUMN), the x lanes of the len%4 tail gathered once per call into
// Y13–Y15 (DOT4_SETUP). With bn, each
// output is then SqDistOf(xn[k], bn[c], dot) (DIST_FINISH).
//
// DOT4_TAIL_LANES(off, y, x) gathers x0..x3 at element R12 + off/8 into y.
#define DOT4_TAIL_LANES(off, y, x) \
	VMOVSD off(SI)(R12*8), x; \
	VMOVHPD off(DI)(R12*8), x, x; \
	VMOVSD off(R8)(R12*8), X12; \
	VMOVHPD off(R9)(R12*8), X12, X12; \
	VINSERTF128 $1, X12, y, y

// DOT4_SETUP takes the four x bases in SI, DI, R8 and R9 and n in CX, sets
// R12 to n&^3, and gathers the tail lanes into Y13–Y15; AX and Y12
// clobbered.
#define DOT4_SETUP \
	MOVQ CX, R12; \
	ANDQ $~3, R12; \
	MOVQ CX, AX; \
	SUBQ R12, AX; \
	CMPQ AX, $1; \
	JLT  setupdone; \
	DOT4_TAIL_LANES(0, Y13, X13); \
	CMPQ AX, $2; \
	JLT  setupdone; \
	DOT4_TAIL_LANES(8, Y14, X14); \
	CMPQ AX, $3; \
	JLT  setupdone; \
	DOT4_TAIL_LANES(16, Y15, X15); \
setupdone:

// DOT4_SUM combines four accumulators, a_k's lane j Dot's s_j for output k,
// into a0's four (s0+s1)+(s2+s3): two VHADDPDs and a 128-bit transpose. a1
// and a3 clobbered.
#define DOT4_SUM(a0, a1, a2, a3) \
	VHADDPD a1, a0, a0; \
	VHADDPD a3, a2, a2; \
	VPERM2F128 $0x20, a2, a0, a1; \
	VPERM2F128 $0x31, a2, a0, a3; \
	VADDPD a3, a1, a0

// DOT2_QUAD(x, a0, a1) adds x's quad at BX times each column's quad (Y8,
// Y9) into a0 and a1.
#define DOT2_QUAD(x, a0, a1) \
	VMULPD (x)(BX*8), Y8, Y10; \
	VMULPD (x)(BX*8), Y9, Y11; \
	VADDPD Y10, a0, a0; \
	VADDPD Y11, a1, a1

// DOT2_TAIL(off, lanes, c2) adds element R12 + off/8 of the columns at DX
// and c2 times the x lanes (x0[i], x1[i], x2[i], x3[i]) into Y0 and Y4.
#define DOT2_TAIL(off, lanes, c2) \
	VBROADCASTSD off(DX)(R12*8), Y8; \
	VBROADCASTSD off(c2)(R12*8), Y9; \
	VMULPD lanes, Y8, Y8; \
	VMULPD lanes, Y9, Y9; \
	VADDPD Y8, Y0, Y0; \
	VADDPD Y9, Y4, Y4

// DOT2_COLUMNS leaves in Y0 the four dots of x0..x3 with the n-float column
// at DX and in Y4 those with the column at c2, two columns at a time so
// eight accumulator chains run at once: each quad of both columns is
// multiplied by each x_k's (DOT2_QUAD) — Dot's s_j of output k in lane j of
// Y(k) for the first column and Y(k+4) for the second, a separate VMULPD
// and VADDPD, never fused — then DOT4_SUM, and the len%4 tail against the x
// lanes l0..l2 (DOT2_TAIL), t its length. Y0–Y11, BX and t clobbered.
#define DOT2_COLUMNS(c2, l0, l1, l2, t) \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7; \
	XORQ BX, BX; \
	CMPQ BX, R12; \
	JGE  sums; \
quads: \
	VMOVUPD (DX)(BX*8), Y8; \
	VMOVUPD (c2)(BX*8), Y9; \
	DOT2_QUAD(SI, Y0, Y4); \
	DOT2_QUAD(DI, Y1, Y5); \
	DOT2_QUAD(R8, Y2, Y6); \
	DOT2_QUAD(R9, Y3, Y7); \
	ADDQ $4, BX; \
	CMPQ BX, R12; \
	JLT  quads; \
sums: \
	DOT4_SUM(Y0, Y1, Y2, Y3); \
	DOT4_SUM(Y4, Y5, Y6, Y7); \
	MOVQ CX, t; \
	SUBQ R12, t; \
	CMPQ t, $1; \
	JLT  tailed; \
	DOT2_TAIL(0, l0, c2); \
	CMPQ t, $2; \
	JLT  tailed; \
	DOT2_TAIL(8, l1, c2); \
	CMPQ t, $3; \
	JLT  tailed; \
	DOT2_TAIL(16, l2, c2); \
tailed:

// DOT4_COLUMN leaves in Y0 the four dots of x0..x3 with the n-float column
// at DX, one column alone: the quads into Y0–Y3 (BX the element index),
// DOT4_SUM, and the tail against Y13–Y15, t its length. Y0–Y8, BX and t
// clobbered.
#define DOT4_COLUMN(t) \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	XORQ BX, BX; \
	CMPQ BX, R12; \
	JGE  sum1; \
quad1: \
	VMOVUPD (DX)(BX*8), Y4; \
	VMULPD (SI)(BX*8), Y4, Y5; \
	VMULPD (DI)(BX*8), Y4, Y6; \
	VMULPD (R8)(BX*8), Y4, Y7; \
	VMULPD (R9)(BX*8), Y4, Y8; \
	VADDPD Y5, Y0, Y0; \
	VADDPD Y6, Y1, Y1; \
	VADDPD Y7, Y2, Y2; \
	VADDPD Y8, Y3, Y3; \
	ADDQ $4, BX; \
	CMPQ BX, R12; \
	JLT  quad1; \
sum1: \
	DOT4_SUM(Y0, Y1, Y2, Y3); \
	MOVQ CX, t; \
	SUBQ R12, t; \
	CMPQ t, $1; \
	JLT  tailed1; \
	VBROADCASTSD (DX)(R12*8), Y4; \
	VMULPD Y13, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	CMPQ t, $2; \
	JLT  tailed1; \
	VBROADCASTSD 8(DX)(R12*8), Y4; \
	VMULPD Y14, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
	CMPQ t, $3; \
	JLT  tailed1; \
	VBROADCASTSD 16(DX)(R12*8), Y4; \
	VMULPD Y15, Y4, Y4; \
	VADDPD Y4, Y0, Y0; \
tailed1:

// DIST_FINISH turns the four dots in y into SqDistOf(xn, norm, dot), xn
// holding the four rows' norms and nb the column's: (xn + norm) − (dot +
// dot), and VMAXPD's (0 > d ? 0 : d) for the clamp, which passes NaN and
// −0 through as the Go comparison does. t clobbered.
#define DIST_FINISH(y, nb, xn, t) \
	VADDPD y, y, y; \
	VBROADCASTSD nb, t; \
	VADDPD xn, t, t; \
	VSUBPD y, t, y; \
	VXORPD t, t, t; \
	VMAXPD y, t, y

// DOT4_STORE(y, x, xh, off, p, ld) stores y's four lanes down a column of
// output rows ld bytes apart: lane k at off(p) + k·ld. x is y's low half and
// xh, clobbered, takes its high one. BX clobbered.
#define DOT4_STORE(y, x, xh, off, p, ld) \
	VMOVSD x, off(p); \
	VMOVHPD x, off(p)(ld*1); \
	VEXTRACTF128 $1, y, xh; \
	LEAQ (p)(ld*2), BX; \
	VMOVSD xh, off(BX); \
	VMOVHPD xh, off(BX)(ld*1)

TEXT ·dot4PanelVec(SB), NOSPLIT, $0-208
	MOVQ x0_base+0(FP), SI
	MOVQ x0_len+8(FP), CX
	MOVQ x1_base+24(FP), DI
	MOVQ x2_base+48(FP), R8
	MOVQ x3_base+72(FP), R9
	DOT4_SETUP
	MOVQ b_base+96(FP), DX
	MOVQ w+120(FP), R13 // columns left
	MOVQ dst_base+128(FP), R10
	MOVQ ld+152(FP), R11
	SHLQ $3, R11 // output row stride in bytes
	MOVQ bn_len+192(FP), R14
	TESTQ R14, R14
	JZ   pair
	MOVQ xn_base+160(FP), BX
	VMOVUPD (BX), Y12
	MOVQ bn_base+184(FP), R14

pair:
	CMPQ R13, $1
	JLT  done
	JEQ  single
	LEAQ (DX)(CX*8), AX // the second column
	DOT2_COLUMNS(AX, Y13, Y14, Y15, BX)
	TESTQ R14, R14
	JZ    store
	DIST_FINISH(Y0, (R14), Y12, Y8)
	DIST_FINISH(Y4, 8(R14), Y12, Y9)
	ADDQ $16, R14

store:
	DOT4_STORE(Y0, X0, X1, 0, R10, R11)
	DOT4_STORE(Y4, X4, X5, 8, R10, R11)
	ADDQ $16, R10
	LEAQ (AX)(CX*8), DX // the next step's first column
	SUBQ $2, R13
	JMP  pair

single:
	DOT4_COLUMN(AX)
	TESTQ R14, R14
	JZ    store1
	DIST_FINISH(Y0, (R14), Y12, Y1)

store1:
	DOT4_STORE(Y0, X0, X1, 0, R10, R11)

done:
	VZEROUPPER
	RET

// func expDistSumVec(x0, x1, x2, x3, b []float64, w int, bn, coef []float64, p *sumPanel) int
//
// A batch of up to eight columns a step, in two phases. The distances go
// first, two columns at a time (DOT2_COLUMNS, the x lanes of the len%4 tail
// gathered in p.tail) and DIST_FINISH, each column's four distances into
// p.d; a last odd column is computed as both columns of its pair. A batch
// with a lane whose s·d is outside [−708, 709] ends the call before it, its
// distances left in p.d. Otherwise exp(s·d) (EXP_LANES) runs over the
// batch's columns, which are independent, so their latencies overlap, and
// each column's term coef·K goes into the running sums (Y12) in column
// order, a VMULPD and a VADDPD.
//
// BATCH_END lowers r, holding w, to min(R13 + 8, w): the end of the batch
// from R13. BX clobbered.
#define BATCH_END(r) \
	LEAQ 8(R13), BX; \
	CMPQ BX, r; \
	CMOVQLT BX, r

TEXT ·expDistSumVec(SB), NOSPLIT, $0-192
	MOVQ x0_base+0(FP), SI
	MOVQ x0_len+8(FP), CX
	MOVQ x1_base+24(FP), DI
	MOVQ x2_base+48(FP), R8
	MOVQ x3_base+72(FP), R9
	MOVQ b_base+96(FP), DX // the next column's row
	MOVQ p+176(FP), R14
	MOVQ CX, R12
	ANDQ $~3, R12
	VMOVUPD 0(R14), Y12 // the running sums
	XORQ R13, R13       // columns added

batch:
	CMPQ R13, w+120(FP)
	JGE  done
	MOVQ R13, R11          // the next column's index
	VPCMPEQQ Y13, Y13, Y13 // every exponent in range so far

pair:
	MOVQ w+120(FP), AX
	BATCH_END(AX)
	SUBQ R11, AX
	JLE  exps
	LEAQ (DX)(CX*8), R10 // the second column
	CMPQ AX, $1
	JGT  dots
	MOVQ DX, R10

dots:
	DOT2_COLUMNS(R10, 96(R14), 128(R14), 160(R14), AX)

dists:
	MOVQ w+120(FP), AX
	BATCH_END(AX)
	LEAQ 1(R11), BX
	CMPQ BX, AX
	MOVQ bn_base+128(FP), AX
	LEAQ (AX)(R11*8), AX
	LEAQ 8(AX), BX
	CMOVQGE AX, BX // the one column, twice
	DIST_FINISH(Y0, (AX), 32(R14), Y1)
	DIST_FINISH(Y4, (BX), 32(R14), Y5)
	MOVQ R11, AX
	SUBQ R13, AX
	SHLQ $5, AX
	VMOVUPD Y0, 192(R14)(AX*1)
	VMOVUPD Y4, 224(R14)(AX*1)
	VMULPD 64(R14), Y0, Y0 // t = s·d
	VMULPD 64(R14), Y4, Y4
	EXP_IN(Y0, Y2, Y3)
	EXP_IN(Y4, Y6, Y7)
	VANDPD Y2, Y13, Y13
	VANDPD Y6, Y13, Y13
	ADDQ $2, R11
	LEAQ (R10)(CX*8), DX
	JMP  pair

exps:
	VMOVMSKPD Y13, AX
	CMPQ AX, $15
	JNE  done
	MOVQ w+120(FP), R11
	BATCH_END(R11)
	MOVQ coef_base+152(FP), R10
	LEAQ 192(R14), AX

exp:
	CMPQ R13, R11
	JGE  batch
	VMOVUPD (AX), Y0
	VMULPD 64(R14), Y0, Y0
	EXP_LANES(Y0, Y1, Y2, X2)
	VBROADCASTSD (R10)(R13*8), Y1
	VMULPD Y0, Y1, Y1
	VADDPD Y1, Y12, Y12
	INCQ R13
	ADDQ $32, AX
	JMP  exp

done:
	VMOVUPD Y12, 0(R14)
	MOVQ R13, ret+184(FP)
	VZEROUPPER
	RET

// func expPanelVec(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int, bn []float64, chunks [][]float64, per, row, col int, p *sumPanel) int
//
// expDistSumVec's batches with the exps stored instead of summed: the
// exponents t = s·d of up to eight columns go first, two columns at a time,
// into p.d, and a batch with one outside [−708, 709] ends the call before
// it. The scale is not positive and a distance is +0 or more, −0 or NaN, so
// t is at most +0 or NaN, and one ordered compare, t ≥ −708, is EXP_IN's
// test. Otherwise the batch's exps (EXP_LANES) go four columns at a time, the
// columns independent, so their latencies overlap, and the batch's last
// len%4 columns one at a time. Each column's four values go down the column
// in dst (DOT4_STORE) and, when chunks is not empty, as one 32-byte store
// along the column's mirror row.
//
// At a batch's exps R10 points at the column's dst entries and DX holds ld
// in bytes; SI points at the column's mirror entry (0 without a mirror), in
// chunk R9, whose rows R12 counts down (NEXT_CHUNK moves to the next one).
// A batch finds its mirror entry with one DIVQ, and x0..x3 and its first
// column's row again from the arguments and R13: the exps reuse their
// registers. The batch's end is a local, end.
//
// NEXT_CHUNK(chunks, per, col) points SI at column col of chunk R9 + 1's
// first row, chunks being the chunk list's base, and sets R12 to per. BX
// clobbered.
#define NEXT_CHUNK(chunks, per, col) \
	INCQ R9; \
	LEAQ (R9)(R9*2), BX; \
	SHLQ $3, BX; \
	ADDQ chunks, BX; \
	MOVQ (BX), SI; \
	MOVQ col, BX; \
	LEAQ (SI)(BX*8), SI; \
	MOVQ per, R12

TEXT ·expPanelVec(SB), NOSPLIT, $8-248
	MOVQ p+232(FP), R14
	XORQ R13, R13 // columns stored

batch:
	CMPQ R13, w+120(FP)
	JGE  done
	MOVQ x0_base+0(FP), SI
	MOVQ x0_len+8(FP), CX
	MOVQ x1_base+24(FP), DI
	MOVQ x2_base+48(FP), R8
	MOVQ x3_base+72(FP), R9
	MOVQ CX, R12
	ANDQ $~3, R12
	MOVQ R13, R11 // the next column's index
	MOVQ R13, DX
	IMULQ CX, DX
	SHLQ $3, DX
	ADDQ b_base+96(FP), DX // and its row
	MOVQ w+120(FP), AX
	BATCH_END(AX)
	MOVQ AX, end-8(SP)
	VPCMPEQQ Y13, Y13, Y13 // every exponent in range so far

pair:
	MOVQ end-8(SP), AX
	SUBQ R11, AX
	JLE  exps
	LEAQ (DX)(CX*8), R10 // the second column
	CMPQ AX, $1
	JGT  dots
	MOVQ DX, R10

dots:
	DOT2_COLUMNS(R10, 96(R14), 128(R14), 160(R14), AX)
	LEAQ 1(R11), BX
	CMPQ BX, end-8(SP)
	MOVQ bn_base+160(FP), AX
	LEAQ (AX)(R11*8), AX
	LEAQ 8(AX), BX
	CMOVQGE AX, BX // the one column, twice
	DIST_FINISH(Y0, (AX), 32(R14), Y1)
	DIST_FINISH(Y4, (BX), 32(R14), Y5)
	VMULPD 64(R14), Y0, Y0 // t = s·d
	VMULPD 64(R14), Y4, Y4
	MOVQ R11, AX
	SUBQ R13, AX
	SHLQ $5, AX
	VMOVUPD Y0, 192(R14)(AX*1)
	VMOVUPD Y4, 224(R14)(AX*1)
	VCMPPD $0x1d, expv<>+416(SB), Y0, Y2 // t ≥ −708, ordered
	VCMPPD $0x1d, expv<>+416(SB), Y4, Y6
	VANDPD Y2, Y13, Y13
	VANDPD Y6, Y13, Y13
	ADDQ $2, R11
	LEAQ (R10)(CX*8), DX
	JMP  pair

exps:
	VMOVMSKPD Y13, AX
	CMPQ AX, $15
	JNE  done
	XORQ SI, SI // no mirror
	MOVQ chunks_len+192(FP), AX
	TESTQ AX, AX
	JZ   dstrow
	MOVQ row+216(FP), AX
	ADDQ R13, AX
	XORQ DX, DX
	DIVQ per+208(FP) // AX: the chunk, DX: the row in it
	MOVQ per+208(FP), R12
	SUBQ DX, R12
	MOVQ AX, R9
	IMULQ ld+152(FP), DX
	ADDQ col+224(FP), DX
	LEAQ (AX)(AX*2), AX
	MOVQ chunks_base+184(FP), BX
	MOVQ (BX)(AX*8), SI
	LEAQ (SI)(DX*8), SI

dstrow:
	MOVQ end-8(SP), R11
	MOVQ dst_base+128(FP), R10
	LEAQ (R10)(R13*8), R10
	MOVQ ld+152(FP), DX
	SHLQ $3, DX
	LEAQ 192(R14), AX

exp:
	MOVQ R11, BX
	SUBQ R13, BX
	CMPQ BX, $4
	JLT  exp1
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	EXP_LANES(Y0, Y4, Y5, X5)
	EXP_LANES(Y1, Y6, Y7, X7)
	EXP_LANES(Y2, Y8, Y9, X9)
	EXP_LANES(Y3, Y10, Y11, X11)
	TESTQ SI, SI
	JZ   rows4
	CMPQ R12, $4
	JLT  mirror4
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, (SI)(DX*1)
	LEAQ (SI)(DX*2), SI
	VMOVUPD Y2, (SI)
	VMOVUPD Y3, (SI)(DX*1)
	LEAQ (SI)(DX*2), SI
	SUBQ $4, R12
	JMP  rows4

mirror4:
	// The chunk ends within the four columns: one at a time, from p.d.
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	XORQ R8, R8

mirror4col:
	TESTQ R12, R12
	JNZ  mirror4at
	NEXT_CHUNK(chunks_base+184(FP), per+208(FP), col+224(FP))

mirror4at:
	VMOVUPD (AX)(R8*1), Y4
	VMOVUPD Y4, (SI)
	ADDQ DX, SI
	DECQ R12
	ADDQ $32, R8
	CMPQ R8, $128
	JLT  mirror4col

rows4:
	DOT4_STORE(Y0, X0, X4, 0, R10, DX)
	DOT4_STORE(Y1, X1, X5, 8, R10, DX)
	DOT4_STORE(Y2, X2, X6, 16, R10, DX)
	DOT4_STORE(Y3, X3, X7, 24, R10, DX)
	ADDQ $4, R13
	ADDQ $32, R10
	ADDQ $128, AX
	JMP  exp

exp1:
	CMPQ R13, R11
	JGE  batch
	VMOVUPD (AX), Y0
	EXP_LANES(Y0, Y1, Y2, X2)
	DOT4_STORE(Y0, X0, X1, 0, R10, DX)
	TESTQ SI, SI
	JZ   stored
	TESTQ R12, R12
	JNZ  mirror1at
	NEXT_CHUNK(chunks_base+184(FP), per+208(FP), col+224(FP))

mirror1at:
	VMOVUPD Y0, (SI)
	ADDQ DX, SI
	DECQ R12

stored:
	INCQ R13
	ADDQ $8, R10
	ADDQ $32, AX
	JMP  exp

done:
	MOVQ R13, ret+240(FP)
	VZEROUPPER
	RET

// func quotedSpanVec(s []byte) (n int, ctl bool)
//
// 32 bytes a step: a VPCMPEQB per byte of interest, the stops ('"', '\\')
// and the controls (LF, CR) each ORed into one VPMOVMSKB mask. The first
// block with a stop ends the call at that stop, counting only the controls
// below it; a tail under 32 bytes is left to the caller.
TEXT ·quotedSpanVec(SB), NOSPLIT, $0-33
	MOVQ s_base+0(FP), SI
	MOVQ s_len+8(FP), CX
	ANDQ $~31, CX
	MOVL $0x22, AX
	MOVQ AX, X15
	VPBROADCASTB X15, Y15
	MOVL $0x5c, AX
	MOVQ AX, X14
	VPBROADCASTB X14, Y14
	MOVL $0x0a, AX
	MOVQ AX, X13
	VPBROADCASTB X13, Y13
	MOVL $0x0d, AX
	MOVQ AX, X12
	VPBROADCASTB X12, Y12
	XORQ AX, AX // bytes scanned
	XORL R8, R8 // controls seen

qblock:
	CMPQ AX, CX
	JGE  qdone
	VMOVDQU (SI)(AX*1), Y0
	VPCMPEQB Y15, Y0, Y1
	VPCMPEQB Y14, Y0, Y2
	VPOR     Y2, Y1, Y1
	VPCMPEQB Y13, Y0, Y2
	VPCMPEQB Y12, Y0, Y3
	VPOR     Y3, Y2, Y2
	VPMOVMSKB Y1, DX
	VPMOVMSKB Y2, BX
	TESTL DX, DX
	JNZ   qstop
	ORL  BX, R8
	ADDQ $32, AX
	JMP  qblock

qstop:
	LEAL -1(DX), R9 // (stops − 1) &^ stops: the bits below the first stop
	MOVL DX, R10
	NOTL R10
	ANDL R10, R9
	ANDL R9, BX
	ORL  BX, R8
	BSFL DX, DX
	ADDQ DX, AX

qdone:
	MOVQ AX, n+24(FP)
	TESTL R8, R8
	SETNE ctl+32(FP)
	VZEROUPPER
	RET

// The tables of Muła and Lemire's AVX2 base64 decode ("Faster Base64
// Encoding and Decoding Using AVX2 Instructions", arXiv:1704.00605), one
// 128-bit half each, broadcast to both. A character c is in the alphabet
// exactly when b64lo[c & 15] & b64hi[c >> 4] is zero; b64roll, indexed by
// c >> 4 (less one for '/'), is what c + roll needs to be its 6-bit value.
DATA b64lo<>+0(SB)/8, $0x1111111111111115
DATA b64lo<>+8(SB)/8, $0x1a1b1b1b1a131111
GLOBL b64lo<>(SB), RODATA|NOPTR, $16
DATA b64hi<>+0(SB)/8, $0x0804080402011010
DATA b64hi<>+8(SB)/8, $0x1010101010101010
GLOBL b64hi<>(SB), RODATA|NOPTR, $16
DATA b64roll<>+0(SB)/8, $0xb9b9bfbf04131000
DATA b64roll<>+8(SB)/8, $0x0000000000000000
GLOBL b64roll<>(SB), RODATA|NOPTR, $16

// b64pack gathers each dword's three decoded bytes, first byte first, into
// the low 12 bytes of its half and zeroes the other four; b64perm then joins
// the halves' 12 bytes into 24 and puts the zeroed dwords in the top quad.
DATA b64pack<>+0(SB)/8, $0x090a040506000102
DATA b64pack<>+8(SB)/8, $0xffffffff0c0d0e08
GLOBL b64pack<>(SB), RODATA|NOPTR, $16
DATA b64perm<>+0(SB)/8, $0x0000000100000000
DATA b64perm<>+8(SB)/8, $0x0000000400000002
DATA b64perm<>+16(SB)/8, $0x0000000600000005
DATA b64perm<>+24(SB)/8, $0x0000000700000003
GLOBL b64perm<>(SB), RODATA|NOPTR, $32

// '/' and the nibble mask; the two multiply-add weights merging four 6-bit
// values into 24 bits; float64's exponent field.
DATA b64c<>+0(SB)/4, $0x2f2f2f2f
DATA b64c<>+4(SB)/4, $0x01400140
DATA b64c<>+8(SB)/4, $0x00011000
DATA b64c<>+16(SB)/8, $0x7ff0000000000000
GLOBL b64c<>(SB), RODATA|NOPTR, $24

// func base64F64Vec(dst []float64, src []byte) int
//
// One 32-character block of src a step: validate and translate it to 6-bit
// values with three nibble lookups, merge them into 24 bytes with two
// multiply-adds, a byte shuffle and a dword permute, and store those as
// dst's next three values once none has an all-ones exponent. A block with
// a character outside the alphabet or a NaN or ±Inf ends the call, as do a
// src tail under 32 characters and a dst with room for fewer than three.
TEXT ·base64F64Vec(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), DX
	VBROADCASTI128 b64lo<>(SB), Y15
	VBROADCASTI128 b64hi<>(SB), Y14
	VBROADCASTI128 b64roll<>(SB), Y13
	VPBROADCASTD b64c<>+0(SB), Y12   // '/' = 0x2f, also the nibble mask
	VPBROADCASTD b64c<>+4(SB), Y11
	VPBROADCASTD b64c<>+8(SB), Y10
	VBROADCASTI128 b64pack<>(SB), Y9
	VMOVDQU b64perm<>(SB), Y8
	VPBROADCASTQ b64c<>+16(SB), Y7
	XORQ AX, AX // values written
	XORQ BX, BX // characters read

block:
	LEAQ 3(AX), R8
	CMPQ R8, CX
	JGT  b64done
	LEAQ 32(BX), R9
	CMPQ R9, DX
	JGT  b64done
	VMOVDQU (SI)(BX*1), Y0

	// c & 0x2f keeps the low nibble (and bit 5, which VPSHUFB ignores);
	// the dword shift brings the high nibble down, and the mask drops the
	// next byte's bits but for one VPSHUFB ignores too.
	VPSRLD   $4, Y0, Y1
	VPAND    Y12, Y0, Y2
	VPAND    Y12, Y1, Y1
	VPSHUFB  Y2, Y15, Y2
	VPSHUFB  Y1, Y14, Y3
	VPTEST   Y2, Y3
	JNE      b64done
	VPCMPEQB Y12, Y0, Y2
	VPADDB   Y2, Y1, Y1
	VPSHUFB  Y1, Y13, Y1
	VPADDB   Y1, Y0, Y0

	// (a, b, c, d) → a<<18 | b<<12 | c<<6 | d per dword, then bytes 2, 1,
	// 0 of each dword in order.
	VPMADDUBSW Y11, Y0, Y0
	VPMADDWD   Y10, Y0, Y0
	VPSHUFB    Y9, Y0, Y0
	VPERMD     Y0, Y8, Y0

	VPAND    Y7, Y0, Y1
	VPCMPEQQ Y7, Y1, Y1
	VPTEST   Y1, Y1
	JNE      b64done
	VMOVDQU      X0, (DI)(AX*8)
	VEXTRACTI128 $1, Y0, X1
	VMOVQ        X1, 16(DI)(AX*8)
	MOVQ R8, AX
	MOVQ R9, BX
	JMP  block

b64done:
	MOVQ AX, ret+48(FP)
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
