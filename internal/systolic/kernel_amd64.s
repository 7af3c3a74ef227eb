#include "textflag.h"

// MADD4 multiplies the interleaved weight words in Y10 (columns 0-3, 8-11)
// and Y11 (columns 4-7, 12-15) by activation row j's (v_r, v_r') pair and
// adds the int32 pair sums into the row's two accumulators.
#define MADD4(j, lo, hi) \
	VPBROADCASTD (4*j)(DX), Y12; \
	VPMADDWD     Y12, Y10, Y13;  \
	VPADDD       Y13, lo, lo;    \
	VPMADDWD     Y12, Y11, Y13;  \
	VPADDD       Y13, hi, hi

// STORE16 puts an activation row's 16 column sums back in column order: the
// low 128-bit lanes of (lo, hi) are columns 0-7, the high lanes 8-15.
#define STORE16(row, lo, hi) \
	VPERM2I128 $0x20, hi, lo, Y8;  \
	VPERM2I128 $0x31, hi, lo, Y9;  \
	VMOVDQU    Y8, (1024*row)(DI); \
	VMOVDQU    Y9, (1024*row+32)(DI)

// func mulGroupAVX2(w *[65536]int8, rows *[256]uint32, vals *[128][4][2]int16, pairs int, out *[256]int32, n int)
//
// Computes four activation rows against the tile and stores the first n
// (1..4) as consecutive 256-wide output rows at out. For each 16-column
// strip it walks the gathered contraction-row pairs: rows[2k] and rows[2k+1]
// are the byte offsets of pair k's weight rows in w, vals[k][j] its
// activations (v_r, v_r') in activation row j. The two weight rows are
// sign-extended to int16 and interleaved so that one VPMADDWD computes
// w_r*v_r + w_r'*v_r' per column. Eight accumulators (four activation rows x
// two lane halves) stay in registers for the whole walk and are stored once
// per strip.
TEXT ·mulGroupAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ out+32(FP), DI
	MOVQ n+40(FP), R11
	MOVQ $16, R10 // strips left

strip:
	MOVQ  rows+8(FP), BX
	MOVQ  vals+16(FP), DX
	MOVQ  pairs+24(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	TESTQ CX, CX
	JZ    store

pair:
	MOVL       (BX), R8
	MOVL       4(BX), R9
	VPMOVSXBW  (SI)(R8*1), Y8
	VPMOVSXBW  (SI)(R9*1), Y9
	VPUNPCKLWD Y9, Y8, Y10
	VPUNPCKHWD Y9, Y8, Y11
	MADD4(0, Y0, Y1)
	MADD4(1, Y2, Y3)
	MADD4(2, Y4, Y5)
	MADD4(3, Y6, Y7)
	ADDQ       $8, BX
	ADDQ       $16, DX
	DECQ       CX
	JNZ        pair

store:
	STORE16(0, Y0, Y1)
	CMPQ R11, $2
	JLT  next
	STORE16(1, Y2, Y3)
	CMPQ R11, $3
	JLT  next
	STORE16(2, Y4, Y5)
	CMPQ R11, $4
	JLT  next
	STORE16(3, Y6, Y7)

next:
	ADDQ $16, SI
	ADDQ $64, DI
	DECQ R10
	JNZ  strip
	VZEROUPPER
	RET

// DOT4 adds activation row j's four signed bytes of this quad, broadcast from
// vals, times the four unsigned weight bytes in every int32 lane of Z26-Z29
// into the row's four accumulators.
#define DOT4(j, a0, a1, a2, a3) \
	VPDPBUSD.BCST (4*j)(DX), Z26, a0; \
	VPDPBUSD.BCST (4*j)(DX), Z27, a1; \
	VPDPBUSD.BCST (4*j)(DX), Z28, a2; \
	VPDPBUSD.BCST (4*j)(DX), Z29, a3

// BIAS4 starts activation row j's four accumulators at -128 * (sum of the
// row's activations), left in the frame by the bias pass.
#define BIAS4(j, a0, a1, a2, a3) \
	VPBROADCASTD bias-24+4*j(SP), a0; \
	VMOVDQA64    a0, a1;              \
	VMOVDQA64    a0, a2;              \
	VMOVDQA64    a0, a3

// NEGSHL7 turns the activation sum in every lane of acc into -128 * sum and
// leaves it in the frame as row j's bias (Z0 is zero).
#define NEGSHL7(j, acc, lo) \
	VPSLLD $7, acc, acc;     \
	VPSUBD acc, Z0, acc;     \
	VMOVD  lo, bias-24+4*j(SP)

// STORE64 puts an activation row's 64 column sums back in column order. In
// accumulator ak, 128-bit lane L holds columns 16L+4k .. 16L+4k+3, so the
// output's lane k of register L is lane L of ak: a 4x4 transpose of lanes.
#define STORE64(row, a0, a1, a2, a3) \
	VSHUFI32X4 $0x44, a1, a0, Z24;   \
	VSHUFI32X4 $0xEE, a1, a0, Z25;   \
	VSHUFI32X4 $0x44, a3, a2, Z26;   \
	VSHUFI32X4 $0xEE, a3, a2, Z27;   \
	VSHUFI32X4 $0x88, Z26, Z24, Z28; \
	VSHUFI32X4 $0xDD, Z26, Z24, Z29; \
	VSHUFI32X4 $0x88, Z27, Z25, Z24; \
	VSHUFI32X4 $0xDD, Z27, Z25, Z26; \
	VMOVDQU32  Z28, (1024*row)(DI);     \
	VMOVDQU32  Z29, (1024*row+64)(DI);  \
	VMOVDQU32  Z24, (1024*row+128)(DI); \
	VMOVDQU32  Z26, (1024*row+192)(DI)

// func mulGroupVNNI(w *[65536]int8, rows *[64]uint32, vals *[64][6]uint32, quads int, out *[256]int32, n int)
//
// Computes six activation rows against the tile and stores the first n
// (1..6) as consecutive 256-wide output rows at out. rows[k] is the byte
// offset in w of the first of gathered quad k's four consecutive weight rows,
// vals[k][j] the four activations activation row j has for them, as they lie
// in the row.
//
// VPDPBUSD multiplies unsigned by signed bytes, four to an int32 lane. The
// activations are the signed operand, broadcast from vals; the weights are
// made unsigned by flipping their sign bits (w ^ 0x80 = w + 128), and since
// sum((w+128)*a) = sum(w*a) + 128*sum(a), starting every accumulator of
// activation row j at -128*sum(a_j) leaves exactly sum(w*a). The bias pass
// computes those sums with the same instruction against a register of ones.
//
// For each 64-column strip and quad the four 64-byte weight rows are loaded
// as they lie and interleaved, bytes then words, so that each int32 lane
// holds one column's four weights in row order. The 24 accumulators (six
// activation rows x four registers) stay in Z0-Z23 for the whole walk and are
// stored once per strip.
TEXT ·mulGroupVNNI(SB), NOSPLIT, $24-48
	MOVQ w+0(FP), SI
	MOVQ out+32(FP), DI
	MOVQ n+40(FP), R11

	// Bias pass: Z24-Z29 gather each activation row's sum in every lane.
	MOVL         $0x01010101, AX
	VPBROADCASTD AX, Z30
	VPXORD       Z0, Z0, Z0
	VMOVDQA64    Z0, Z24
	VMOVDQA64    Z0, Z25
	VMOVDQA64    Z0, Z26
	VMOVDQA64    Z0, Z27
	VMOVDQA64    Z0, Z28
	VMOVDQA64    Z0, Z29
	MOVQ         vals+16(FP), DX
	MOVQ         quads+24(FP), CX
	TESTQ        CX, CX
	JZ           biased

sum:
	VPDPBUSD.BCST 0(DX), Z30, Z24
	VPDPBUSD.BCST 4(DX), Z30, Z25
	VPDPBUSD.BCST 8(DX), Z30, Z26
	VPDPBUSD.BCST 12(DX), Z30, Z27
	VPDPBUSD.BCST 16(DX), Z30, Z28
	VPDPBUSD.BCST 20(DX), Z30, Z29
	ADDQ          $24, DX
	DECQ          CX
	JNZ           sum

biased:
	NEGSHL7(0, Z24, X24)
	NEGSHL7(1, Z25, X25)
	NEGSHL7(2, Z26, X26)
	NEGSHL7(3, Z27, X27)
	NEGSHL7(4, Z28, X28)
	NEGSHL7(5, Z29, X29)

	MOVL         $0x80808080, AX
	VPBROADCASTD AX, Z31
	MOVQ         $4, R10 // strips left

strip:
	MOVQ  rows+8(FP), BX
	MOVQ  vals+16(FP), DX
	MOVQ  quads+24(FP), CX
	BIAS4(0, Z0, Z1, Z2, Z3)
	BIAS4(1, Z4, Z5, Z6, Z7)
	BIAS4(2, Z8, Z9, Z10, Z11)
	BIAS4(3, Z12, Z13, Z14, Z15)
	BIAS4(4, Z16, Z17, Z18, Z19)
	BIAS4(5, Z20, Z21, Z22, Z23)
	TESTQ CX, CX
	JZ    store

quad:
	MOVL       (BX), R8
	VPXORD     (SI)(R8*1), Z31, Z24
	VPXORD     256(SI)(R8*1), Z31, Z25
	VPXORD     512(SI)(R8*1), Z31, Z26
	VPXORD     768(SI)(R8*1), Z31, Z27
	VPUNPCKLBW Z25, Z24, Z28 // rows 0,1 of columns 16L+0..7
	VPUNPCKHBW Z25, Z24, Z29 // rows 0,1 of columns 16L+8..15
	VPUNPCKLBW Z27, Z26, Z24 // rows 2,3 of columns 16L+0..7
	VPUNPCKHBW Z27, Z26, Z25 // rows 2,3 of columns 16L+8..15
	VPUNPCKLWD Z24, Z28, Z26 // columns 16L+0..3
	VPUNPCKHWD Z24, Z28, Z27 // columns 16L+4..7
	VPUNPCKLWD Z25, Z29, Z28 // columns 16L+8..11
	VPUNPCKHWD Z25, Z29, Z29 // columns 16L+12..15
	DOT4(0, Z0, Z1, Z2, Z3)
	DOT4(1, Z4, Z5, Z6, Z7)
	DOT4(2, Z8, Z9, Z10, Z11)
	DOT4(3, Z12, Z13, Z14, Z15)
	DOT4(4, Z16, Z17, Z18, Z19)
	DOT4(5, Z20, Z21, Z22, Z23)
	ADDQ       $4, BX
	ADDQ       $24, DX
	DECQ       CX
	JNZ        quad

store:
	STORE64(0, Z0, Z1, Z2, Z3)
	CMPQ R11, $2
	JLT  next
	STORE64(1, Z4, Z5, Z6, Z7)
	CMPQ R11, $3
	JLT  next
	STORE64(2, Z8, Z9, Z10, Z11)
	CMPQ R11, $4
	JLT  next
	STORE64(3, Z12, Z13, Z14, Z15)
	CMPQ R11, $5
	JLT  next
	STORE64(4, Z16, Z17, Z18, Z19)
	CMPQ R11, $6
	JLT  next
	STORE64(5, Z20, Z21, Z22, Z23)

next:
	ADDQ $64, SI
	ADDQ $256, DI
	DECQ R10
	JNZ  strip
	VZEROUPPER
	RET
