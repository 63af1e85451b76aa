#include "textflag.h"

// Four-lane kernels behind ExpScaled and UpdateScan (vec.go) and behind
// Dot4 and MulTile's dense panels and one-column tiles (tile.go). Each lane performs
// exactly the instruction sequence of the scalar code it stands in for, so
// every result is the scalar result bit for bit. The base64 decode behind
// DecodeBase64F64 (encode.go) writes encoding/base64's bytes.

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

DATA lanec<>+0(SB)/8, $0 // the first group's indices
DATA lanec<>+8(SB)/8, $1
DATA lanec<>+16(SB)/8, $2
DATA lanec<>+24(SB)/8, $3
DATA lanec<>+32(SB)/8, $4                   // index step
DATA lanec<>+40(SB)/8, $-1                  // index of an empty set
DATA lanec<>+48(SB)/8, $0x7ff0000000000000 // +Inf
DATA lanec<>+56(SB)/8, $0xfff0000000000000 // −Inf
GLOBL lanec<>(SB), RODATA|NOPTR, $64

// func updateScanVec(f, rh, rl, outHigh, outLow []float64, ch, cl float64, e *laneExtremes)
//
// v = (f + ch·rh) + cl·rl with separate multiplies and adds, never fused, as
// the Go compiler emits them; then a lane takes v as its high candidate when
// v + outHigh < its best (ordered, so NaN never wins) and as its low one when
// v − outLow > its best, so a later equal value does not replace an earlier
// one. Two groups of four lanes take alternate quads of f, each with its own
// chain of candidates; a last odd quad goes to the first group.
//
// UPDATE_SCAN_QUAD(off, bh, ih, bl, il) runs the quad at f[AX:] + off bytes
// against the lanes' best high (bh, ih) and low (bl, il) and advances Y13,
// the quad's indices, by four.
#define UPDATE_SCAN_QUAD(off, bh, ih, bl, il) \
	VMULPD off(DI)(AX*8), Y15, Y1; \
	VADDPD off(SI)(AX*8), Y1, Y0; \
	VMULPD off(R8)(AX*8), Y14, Y2; \
	VADDPD Y2, Y0, Y0; \
	VMOVUPD Y0, off(SI)(AX*8); \
	VADDPD off(R9)(AX*8), Y0, Y1; \
	VCMPPD $0x11, bh, Y1, Y1; \
	VBLENDVPD Y1, Y0, bh, bh; \
	VBLENDVPD Y1, Y13, ih, ih; \
	VSUBPD off(R10)(AX*8), Y0, Y2; \
	VCMPPD $0x11, Y2, bl, Y2; \
	VBLENDVPD Y2, Y0, bl, bl; \
	VBLENDVPD Y2, Y13, il, il; \
	VPADDQ Y12, Y13, Y13

TEXT ·updateScanVec(SB), NOSPLIT, $0-144
	MOVQ f_base+0(FP), SI
	MOVQ f_len+8(FP), CX
	MOVQ rh_base+24(FP), DI
	MOVQ rl_base+48(FP), R8
	MOVQ outHigh_base+72(FP), R9
	MOVQ outLow_base+96(FP), R10
	MOVQ e+136(FP), R11
	MOVQ CX, DX
	ANDQ $~7, DX
	ANDQ $~3, CX
	VBROADCASTSD ch+120(FP), Y15
	VBROADCASTSD cl+128(FP), Y14
	VMOVDQU lanec<>+0(SB), Y13
	VPBROADCASTQ lanec<>+32(SB), Y12
	VBROADCASTSD lanec<>+48(SB), Y11 // first group: best high value
	VPBROADCASTQ lanec<>+40(SB), Y10 // and index
	VBROADCASTSD lanec<>+56(SB), Y9  // best low value
	VMOVDQA Y10, Y8                  // and index
	VMOVAPD Y11, Y7                  // second group: the same
	VMOVDQA Y10, Y6
	VMOVAPD Y9, Y5
	VMOVDQA Y10, Y4
	XORQ AX, AX

scan:
	CMPQ AX, DX
	JGE  scanodd
	UPDATE_SCAN_QUAD(0, Y11, Y10, Y9, Y8)
	UPDATE_SCAN_QUAD(32, Y7, Y6, Y5, Y4)
	ADDQ $8, AX
	JMP  scan

scanodd:
	CMPQ AX, CX
	JGE  scandone
	UPDATE_SCAN_QUAD(0, Y11, Y10, Y9, Y8)

scandone:
	VMOVUPD Y11, 0(R11)
	VMOVUPD Y7, 32(R11)
	VMOVDQU Y10, 64(R11)
	VMOVDQU Y6, 96(R11)
	VMOVUPD Y9, 128(R11)
	VMOVUPD Y5, 160(R11)
	VMOVDQU Y8, 192(R11)
	VMOVDQU Y4, 224(R11)
	VZEROUPPER
	RET

// func dot4PanelVec(x0, x1, x2, x3, b []float64, w int, dst []float64, ld int)
//
// Output k of a column is one accumulator register whose lane j is Dot's s_j
// over x_k and the column, fed by a separate VMULPD and VADDPD per quad, never
// fused. Two VHADDPDs and a 128-bit transpose combine the four accumulators
// into the four outputs' (s0+s1)+(s2+s3) at once; each len%4 tail element is
// then one broadcast of the column's value against (x0[i], x1[i], x2[i],
// x3[i]), gathered once per call into Y13–Y15, so every output adds its tail
// products in order.
//
// DOT4_TAIL_LANES(off, y, x) gathers x0..x3 at element R12 + off/8 into y.
#define DOT4_TAIL_LANES(off, y, x) \
	VMOVSD off(SI)(R12*8), x; \
	VMOVHPD off(DI)(R12*8), x, x; \
	VMOVSD off(R8)(R12*8), X12; \
	VMOVHPD off(R9)(R12*8), X12, X12; \
	VINSERTF128 $1, X12, y, y

TEXT ·dot4PanelVec(SB), NOSPLIT, $0-160
	MOVQ x0_base+0(FP), SI
	MOVQ x0_len+8(FP), CX
	MOVQ x1_base+24(FP), DI
	MOVQ x2_base+48(FP), R8
	MOVQ x3_base+72(FP), R9
	MOVQ b_base+96(FP), DX
	MOVQ w+120(FP), R13
	MOVQ dst_base+128(FP), R10
	MOVQ ld+152(FP), R11
	SHLQ $3, R11 // output row stride in bytes
	MOVQ CX, R12
	ANDQ $~3, R12
	MOVQ CX, AX
	SUBQ R12, AX // tail length, 0–3
	JZ   col
	DOT4_TAIL_LANES(0, Y13, X13)
	CMPQ AX, $1
	JEQ  col
	DOT4_TAIL_LANES(8, Y14, X14)
	CMPQ AX, $2
	JEQ  col
	DOT4_TAIL_LANES(16, Y15, X15)

col:
	TESTQ R13, R13
	JZ    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ BX, BX
	CMPQ BX, R12
	JGE  sum

quad:
	VMOVUPD (DX)(BX*8), Y4
	VMULPD (SI)(BX*8), Y4, Y5
	VMULPD (DI)(BX*8), Y4, Y6
	VMULPD (R8)(BX*8), Y4, Y7
	VMULPD (R9)(BX*8), Y4, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $4, BX
	CMPQ BX, R12
	JLT  quad

sum:
	VHADDPD Y1, Y0, Y0                // s0+s1 and s2+s3 of outputs 0, 1
	VHADDPD Y3, Y2, Y2                // and of outputs 2, 3
	VPERM2F128 $0x20, Y2, Y0, Y1      // the four s0+s1
	VPERM2F128 $0x31, Y2, Y0, Y3      // the four s2+s3
	VADDPD Y3, Y1, Y0
	TESTQ AX, AX
	JZ    store
	VBROADCASTSD (DX)(R12*8), Y4
	VMULPD Y13, Y4, Y4
	VADDPD Y4, Y0, Y0
	CMPQ AX, $1
	JEQ  store
	VBROADCASTSD 8(DX)(R12*8), Y4
	VMULPD Y14, Y4, Y4
	VADDPD Y4, Y0, Y0
	CMPQ AX, $2
	JEQ  store
	VBROADCASTSD 16(DX)(R12*8), Y4
	VMULPD Y15, Y4, Y4
	VADDPD Y4, Y0, Y0

store:
	VMOVSD X0, (R10)
	VMOVHPD X0, (R10)(R11*1)
	VEXTRACTF128 $1, Y0, X1
	LEAQ (R10)(R11*2), BX
	VMOVSD X1, (BX)
	VMOVHPD X1, (BX)(R11*1)
	ADDQ $8, R10
	LEAQ (DX)(CX*8), DX // the next column
	DECQ R13
	JMP  col

done:
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
