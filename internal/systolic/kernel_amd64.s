#include "funcdata.h"
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

	// VZEROUPPER clears the upper halves of Z0-Z15 only. Left dirty, those
	// of Z16-Z31 would make every later SSE instruction (Go's scalar float
	// code) merge into them, slowing it down.
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	VZEROUPPER
	RET

// The tile instructions, which Go's assembler has no mnemonics for, as their
// VEX encodings (all VEX.128.0F38.W0, three-byte form). t, c, a and b name
// tile registers 0-7. TILELOADD and TILESTORED address base + index*1 + disp
// with the row stride in the index register; base and index are register
// numbers (AX 0, CX 1, DX 2, BX 3, SI 6, DI 7, R8-R13 8-13), and their high
// bits go into VEX's inverted X and B bits.
#define VEX_BX(base, index) BYTE $0xC4; BYTE $(0xE2 ^ (((index)>>3)<<6) ^ (((base)>>3)<<5))
#define SIBDISP(t, base, index, disp) BYTE $(0x84 | (t)<<3); BYTE $((((index)&7)<<3) | ((base)&7)); LONG $(disp)
#define TILELOADD(t, base, index, disp) VEX_BX(base, index); BYTE $0x7B; BYTE $0x4B; SIBDISP(t, base, index, disp)
#define TILESTORED(base, index, disp, t) VEX_BX(base, index); BYTE $0x7A; BYTE $0x4B; SIBDISP(t, base, index, disp)
#define TDPBSSD(c, a, b) BYTE $0xC4; BYTE $0xE2; BYTE $((15-(b))<<3 | 3); BYTE $0x5E; BYTE $(0xC0 | (c)<<3 | (a))
#define TILEZERO(t) BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $(0xC0 | (t)<<3)
#define LDTILECFG_AX BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0x00
#define TILERELEASE BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0xC0

// amxTileConfig is LDTILECFG's operand: palette 1, and all eight tile
// registers 16 rows of 64 bytes — an A tile is 16 activation rows by one
// 64-deep contraction block, a B tile 16 quads of weight rows by 16 columns,
// a C tile 16 activation rows by 16 int32 column sums.
DATA amxTileConfig<>+0(SB)/1, $1
DATA amxTileConfig<>+16(SB)/8, $0x0040004000400040 // colsb, tiles 0-3
DATA amxTileConfig<>+24(SB)/8, $0x0040004000400040 // colsb, tiles 4-7
DATA amxTileConfig<>+48(SB)/8, $0x1010101010101010 // rows, tiles 0-7
GLOBL amxTileConfig<>(SB), RODATA|NOPTR, $64

// NONZERO64 shifts into R10 whether contraction block kb's accumulated OR in
// z is nonzero (NEGL sets the carry for a nonzero mask, RCLL moves it in).
#define NONZERO64(z) \
	VPTESTMQ z, z, K1; \
	KMOVW    K1, AX;   \
	NEGL     AX;       \
	RCLL     $1, R10

// PACKSTRIP packs columns 64s..64s+63 of the weight-row quad at SI into B
// layout at DI: the four rows are interleaved bytes then words as in
// mulGroupVNNI, so that 128-bit lane L of the k-th result holds columns
// 16L+4k..16L+4k+3, four bytes each in row order; a 4x4 transpose of lanes
// then gathers lane L of all four into the 64-byte row of column block
// 4s+L, stored 1 KiB (one B tile) apart.
#define PACKSTRIP(s) \
	VMOVDQU64  (64*s)(SI), Z24;     \
	VMOVDQU64  (256+64*s)(SI), Z25; \
	VMOVDQU64  (512+64*s)(SI), Z26; \
	VMOVDQU64  (768+64*s)(SI), Z27; \
	VPUNPCKLBW Z25, Z24, Z28;       \
	VPUNPCKHBW Z25, Z24, Z29;       \
	VPUNPCKLBW Z27, Z26, Z24;       \
	VPUNPCKHBW Z27, Z26, Z25;       \
	VPUNPCKLWD Z24, Z28, Z26;       \
	VPUNPCKHWD Z24, Z28, Z27;       \
	VPUNPCKLWD Z25, Z29, Z28;       \
	VPUNPCKHWD Z25, Z29, Z29;       \
	VSHUFI64X2 $0x44, Z27, Z26, Z24; \
	VSHUFI64X2 $0xEE, Z27, Z26, Z25; \
	VSHUFI64X2 $0x44, Z29, Z28, Z26; \
	VSHUFI64X2 $0xEE, Z29, Z28, Z27; \
	VSHUFI64X2 $0x88, Z26, Z24, Z28; \
	VSHUFI64X2 $0xDD, Z26, Z24, Z29; \
	VSHUFI64X2 $0x88, Z27, Z25, Z24; \
	VSHUFI64X2 $0xDD, Z27, Z25, Z26; \
	VMOVDQU64  Z28, (4096*s)(DI);      \
	VMOVDQU64  Z29, (4096*s+1024)(DI); \
	VMOVDQU64  Z24, (4096*s+2048)(DI); \
	VMOVDQU64  Z26, (4096*s+3072)(DI)

// func mulBlocksAMX(w *[65536]int8, in *[256]int8, out *[256]int32, blocks int, add bool)
//
// Computes blocks*16 consecutive activation rows, starting at in, against
// the tile and stores them as consecutive 256-wide output rows at out — or,
// with add, adds them to those rows: the C tiles are loaded from out
// instead of zeroed, and TDPBSSD accumulates onto what they hold.
//
// TDPBSSD multiplies signed by signed bytes, four to an int32 lane, and adds
// into int32 without saturating: C[m][n] += sum over k, i of A[m][4k+i] *
// B[k][4n+i]. With A = 16 activation rows by contraction rows 64kb..64kb+63,
// as they lie (stride 256), and B[k][4n+i] = weight row 64kb+4k+i of column
// 16cb+n, C is the contribution of contraction block kb to the 16 rows'
// columns 16cb..16cb+15. So the only work besides the tile instructions is
// packing the weights into B layout: each 64-deep block into sixteen 1 KiB
// tiles, B[kb][cb] at kb*16 KiB + cb*1 KiB, in the frame, which is neither
// zeroed nor kept.
//
// A contraction block that is zero in every activation row adds nothing, so
// the first pass ORs the rows together and R10 gets bit kb for each block
// that is not; blocks without the bit are neither packed nor multiplied.
//
// Tile registers: C in 0-3, A in 4-5, B in 6-7. Each 32-column pair of
// column blocks is walked over the row blocks two at a time (four C tiles,
// each A and B tile used twice), a last odd row block on its own (two C
// tiles), so the pair's B tiles, at most 8 KiB, stay in L1 for every row
// block. TILERELEASE returns the tile state to its initial configuration
// before the function returns; the whole tile section is one assembly
// function with no calls, which Go never preempts, so it never changes
// thread with live tiles.
TEXT ·mulBlocksAMX(SB), 0, $65616-33
	NO_LOCAL_POINTERS

	// Which contraction blocks are nonzero in some row: Z0-Z3 OR the
	// rows' four 64-byte blocks together.
	MOVQ   in+8(FP), SI
	MOVQ   blocks+24(FP), CX
	SHLQ   $4, CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

scan:
	VPORQ (SI), Z0, Z0
	VPORQ 64(SI), Z1, Z1
	VPORQ 128(SI), Z2, Z2
	VPORQ 192(SI), Z3, Z3
	ADDQ  $256, SI
	DECQ  CX
	JNZ   scan
	XORL  R10, R10
	NONZERO64(Z3)
	NONZERO64(Z2)
	NONZERO64(Z1)
	NONZERO64(Z0)

	// Pack the nonzero blocks into the 64-byte aligned scratch at R8. The
	// weight rows of quad q of block kb start at kb*16 KiB + q*1 KiB, its
	// B rows at kb*16 KiB + q*64.
	LEAQ 63(SP), R8
	ANDQ $-64, R8
	MOVQ w+0(FP), SI
	MOVQ R8, DI
	MOVQ R10, AX
	TESTQ AX, AX
	JZ   tiles

pblock:
	BTQ  $0, AX
	JCC  pskip
	MOVQ $16, CX

pquad:
	PACKSTRIP(0)
	PACKSTRIP(1)
	PACKSTRIP(2)
	PACKSTRIP(3)
	ADDQ $1024, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  pquad
	ADDQ $(16384-1024), DI
	JMP  pnext

pskip:
	ADDQ $16384, SI
	ADDQ $16384, DI

pnext:
	SHRQ $1, AX
	JNZ  pblock

tiles:
	// The pack used Z24-Z29, whose upper halves VZEROUPPER leaves dirty
	// (see mulGroupVNNI's return).
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VZEROUPPER
	LEAQ amxTileConfig<>(SB), AX
	LDTILECFG_AX
	MOVQ $256, CX  // A stride: activation rows
	MOVQ $64, DX   // B stride: packed quads
	MOVQ $1024, BX // C stride: output rows
	MOVQ R8, R11   // B tiles of column-block pair p
	MOVQ out+16(FP), R12
	LEAQ 1024(R12), AX
	MOVQ AX, 65600(SP) // end of the column pairs

cpair:
	MOVQ in+8(FP), R13     // A: first row of the row-block pair
	MOVQ R12, AX           // C: its output
	MOVQ blocks+24(FP), R9 // row blocks left

rpair:
	CMPQ R9, $2
	JLT  rone
	CMPB add+32(FP), $0
	JNE  rpairload
	TILEZERO(0)
	TILEZERO(1)
	TILEZERO(2)
	TILEZERO(3)
	JMP  rpairgo

rpairload:
	TILELOADD(0, 0, 3, 0)
	TILELOADD(1, 0, 3, 64)
	TILELOADD(2, 0, 3, 16384)
	TILELOADD(3, 0, 3, 16448)

rpairgo:
	MOVQ R13, SI
	MOVQ R11, DI
	MOVQ R10, R8

kpair:
	BTQ $0, R8
	JCC kpairnext
	TILELOADD(4, 6, 1, 0)
	TILELOADD(5, 6, 1, 4096)
	TILELOADD(6, 7, 2, 0)
	TILELOADD(7, 7, 2, 1024)
	TDPBSSD(0, 4, 6)
	TDPBSSD(1, 4, 7)
	TDPBSSD(2, 5, 6)
	TDPBSSD(3, 5, 7)

kpairnext:
	ADDQ $64, SI
	ADDQ $16384, DI
	SHRQ $1, R8
	JNZ  kpair
	TILESTORED(0, 3, 0, 0)
	TILESTORED(0, 3, 64, 1)
	TILESTORED(0, 3, 16384, 2)
	TILESTORED(0, 3, 16448, 3)
	ADDQ $8192, R13
	ADDQ $32768, AX
	SUBQ $2, R9
	JMP  rpair

rone:
	TESTQ R9, R9
	JZ    cnext
	CMPB  add+32(FP), $0
	JNE   roneload
	TILEZERO(0)
	TILEZERO(1)
	JMP   ronego

roneload:
	TILELOADD(0, 0, 3, 0)
	TILELOADD(1, 0, 3, 64)

ronego:
	MOVQ  R13, SI
	MOVQ  R11, DI
	MOVQ  R10, R8

kone:
	BTQ $0, R8
	JCC konenext
	TILELOADD(4, 6, 1, 0)
	TILELOADD(6, 7, 2, 0)
	TILELOADD(7, 7, 2, 1024)
	TDPBSSD(0, 4, 6)
	TDPBSSD(1, 4, 7)

konenext:
	ADDQ $64, SI
	ADDQ $16384, DI
	SHRQ $1, R8
	JNZ  kone
	TILESTORED(0, 3, 0, 0)
	TILESTORED(0, 3, 64, 1)

cnext:
	ADDQ $2048, R11
	ADDQ $128, R12
	CMPQ R12, 65600(SP)
	JNE  cpair
	TILERELEASE
	RET
