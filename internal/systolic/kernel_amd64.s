#include "textflag.h"

// MADD4 multiplies the weight words in Y8 (columns 0-3 of the strip) and Y9
// (columns 4-7), each column's four rows of the quad as four int16 lanes, by
// activation row j's four values of the quad, broadcast, and adds the int32
// pair sums — two per column — into the row's two accumulators.
#define MADD4(j, lo, hi) \
	VPBROADCASTQ (8*j)(DX), Y12; \
	VPMADDWD     Y12, Y8, Y13;   \
	VPADDD       Y13, lo, lo;    \
	VPMADDWD     Y12, Y9, Y13;   \
	VPADDD       Y13, hi, hi

// STORE8 adds each column's two pair-sum lanes and stores the activation
// row's 8 column sums. VPHADDD works within 128-bit lanes, so its result
// holds columns 0, 1, 4, 5 in the low lane and 2, 3, 6, 7 in the high one,
// and VPERMQ puts the four column pairs back in order.
#define STORE8(row, lo, hi) \
	VPHADDD   hi, lo, Y8;       \
	VPERMQ    $0xD8, Y8, Y8;    \
	VMOVDQU   Y8, (1024*row)(DI)

// func mulGroupAVX2(w *[65536]int8, rows *[64]uint32, vals *[64][4][4]int16, quads int, out *[256]int32, n int)
//
// Computes four activation rows against the tile and stores the first n
// (1..4) as consecutive 256-wide output rows at out. For each 8-column strip
// it walks the gathered quads: rows[k] is the byte offset of quad k's quad
// row in w, vals[k][j] activation row j's four values of the quad as int16.
// The strip's 32 weight bytes of the quad, each column's four rows adjacent,
// are sign-extended to int16 so that one VPMADDWD against the broadcast
// activations computes w_0*v_0 + w_1*v_1 and w_2*v_2 + w_3*v_3 per column.
// Eight accumulators (four activation rows x two halves) stay in registers
// for the whole walk; each column's two lanes are added and stored once per
// strip.
TEXT ·mulGroupAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), SI
	MOVQ out+32(FP), DI
	MOVQ n+40(FP), R11
	MOVQ $32, R10 // strips left

strip:
	MOVQ  rows+8(FP), BX
	MOVQ  vals+16(FP), DX
	MOVQ  quads+24(FP), CX
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

quad:
	MOVL      (BX), R8
	VPMOVSXBW (SI)(R8*1), Y8
	VPMOVSXBW 16(SI)(R8*1), Y9
	MADD4(0, Y0, Y1)
	MADD4(1, Y2, Y3)
	MADD4(2, Y4, Y5)
	MADD4(3, Y6, Y7)
	ADDQ      $4, BX
	ADDQ      $32, DX
	DECQ      CX
	JNZ       quad

store:
	STORE8(0, Y0, Y1)
	CMPQ R11, $2
	JLT  next
	STORE8(1, Y2, Y3)
	CMPQ R11, $3
	JLT  next
	STORE8(2, Y4, Y5)
	CMPQ R11, $4
	JLT  next
	STORE8(3, Y6, Y7)

next:
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R10
	JNZ  strip
	VZEROUPPER
	RET

// DOT4 adds activation row j's four signed bytes of this quad, broadcast from
// vals, times the four unsigned weight bytes in every int32 lane of Z26-Z29 —
// columns 16k..16k+15 of the strip in register k — into the row's four
// accumulators.
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

// STORE64 stores an activation row's 64 column sums, already in column order.
#define STORE64(row, a0, a1, a2, a3) \
	VMOVDQU32 a0, (1024*row)(DI);     \
	VMOVDQU32 a1, (1024*row+64)(DI);  \
	VMOVDQU32 a2, (1024*row+128)(DI); \
	VMOVDQU32 a3, (1024*row+192)(DI)

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
// For each 64-column strip and quad the strip's 256 bytes of the quad row are
// loaded as they lie: each int32 lane already holds one column's four
// weights in row order, and the lanes are the columns in order. The 24
// accumulators (six activation rows x four registers) stay in Z0-Z23 for the
// whole walk and are stored once per strip.
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
	MOVL   (BX), R8
	VPXORD (SI)(R8*1), Z31, Z26
	VPXORD 64(SI)(R8*1), Z31, Z27
	VPXORD 128(SI)(R8*1), Z31, Z28
	VPXORD 192(SI)(R8*1), Z31, Z29
	DOT4(0, Z0, Z1, Z2, Z3)
	DOT4(1, Z4, Z5, Z6, Z7)
	DOT4(2, Z8, Z9, Z10, Z11)
	DOT4(3, Z12, Z13, Z14, Z15)
	DOT4(4, Z16, Z17, Z18, Z19)
	DOT4(5, Z20, Z21, Z22, Z23)
	ADDQ   $4, BX
	ADDQ   $24, DX
	DECQ   CX
	JNZ    quad

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
	ADDQ $256, SI
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
// numbers (AX 0, CX 1, DX 2, BX 3, SI 6, DI 7, R8-R14 8-14), and their high
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

// func mulBlocksAMX(w *[65536]int8, in *[256]int8, stride int, out *[256]int32, blocks int, add bool)
//
// Computes blocks*16 activation rows, the first at in and each stride bytes
// after the one before, against the tile and stores them as consecutive
// 256-wide output rows at out — or, with add, adds them to those rows: the C
// tiles are loaded from out instead of zeroed, and TDPBSSD accumulates onto
// what they hold.
//
// TDPBSSD multiplies signed by signed bytes, four to an int32 lane, and adds
// into int32 without saturating: C[m][n] += sum over k, i of A[m][4k+i] *
// B[k][4n+i]. With A = 16 activation rows by contraction rows 64kb..64kb+63,
// as they lie (the A stride is the rows' stride), and B[k][4n+i] = weight
// row 64kb+4k+i of column 16cb+n, C is the contribution of contraction block kb to the 16 rows'
// columns 16cb..16cb+15. That B is the tile as it lies (isa.WeightOffset):
// B row k is bytes 64cb..64cb+63 of quad row 16kb+k, so B tile (kb, cb) is
// loaded from w + kb*16 KiB + cb*64 with the quad row's 1 KiB as its stride,
// and the only work besides the tile instructions is choosing the blocks.
//
// A contraction block that is zero in every activation row adds nothing, so
// the first pass ORs the rows together and R10 gets bit kb for each block
// that is not; blocks without the bit are not multiplied.
//
// Tile registers: C in 0-3, A in 4-5, B in 6-7. Each 32-column pair of
// column blocks is walked over the row blocks two at a time (four C tiles,
// each A and B tile used twice), a last odd row block on its own (two C
// tiles), so the pair's B tiles, at most 8 KiB, are read from the cache for
// every row block after the first. TILERELEASE returns the tile state to its
// initial configuration before the function returns; the whole tile section
// is one assembly function with no calls, which Go never preempts, so it
// never changes thread with live tiles.
TEXT ·mulBlocksAMX(SB), NOSPLIT, $24-41
	// Which contraction blocks are nonzero in some row: Z0-Z3 OR the
	// rows' four 64-byte blocks together.
	MOVQ   in+8(FP), SI
	MOVQ   stride+16(FP), DX
	MOVQ   blocks+32(FP), CX
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
	ADDQ  DX, SI
	DECQ  CX
	JNZ   scan
	XORL  R10, R10
	NONZERO64(Z3)
	NONZERO64(Z2)
	NONZERO64(Z1)
	NONZERO64(Z0)

	VZEROUPPER
	LEAQ amxTileConfig<>(SB), AX
	LDTILECFG_AX
	MOVQ stride+16(FP), CX // A stride: activation rows
	MOVQ CX, AX
	SHLQ $4, AX
	MOVQ AX, rows16-16(SP) // from a row block's A tile to the next's
	SHLQ $1, AX
	MOVQ AX, rows32-24(SP) // from a row-block pair to the next
	MOVQ $1024, DX         // B stride: quad rows
	MOVQ $1024, BX         // C stride: output rows
	MOVQ w+0(FP), R11      // B tiles of column-block pair p: w + 128p
	MOVQ out+24(FP), R12
	LEAQ 1024(R12), AX
	MOVQ AX, end-8(SP) // end of the column pairs

cpair:
	MOVQ in+8(FP), R13     // A: first row of the row-block pair
	MOVQ R12, AX           // C: its output
	MOVQ blocks+32(FP), R9 // row blocks left

rpair:
	CMPQ R9, $2
	JLT  rone
	CMPB add+40(FP), $0
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
	MOVQ R13, R14
	ADDQ rows16-16(SP), R14 // the second row block's A
	MOVQ R11, DI
	MOVQ R10, R8

kpair:
	BTQ $0, R8
	JCC kpairnext
	TILELOADD(4, 6, 1, 0)
	TILELOADD(5, 14, 1, 0)
	TILELOADD(6, 7, 2, 0)
	TILELOADD(7, 7, 2, 64)
	TDPBSSD(0, 4, 6)
	TDPBSSD(1, 4, 7)
	TDPBSSD(2, 5, 6)
	TDPBSSD(3, 5, 7)

kpairnext:
	ADDQ $64, SI
	ADDQ $64, R14
	ADDQ $16384, DI
	SHRQ $1, R8
	JNZ  kpair
	TILESTORED(0, 3, 0, 0)
	TILESTORED(0, 3, 64, 1)
	TILESTORED(0, 3, 16384, 2)
	TILESTORED(0, 3, 16448, 3)
	ADDQ rows32-24(SP), R13
	ADDQ $32768, AX
	SUBQ $2, R9
	JMP  rpair

rone:
	TESTQ R9, R9
	JZ    cnext
	CMPB  add+40(FP), $0
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
	TILELOADD(7, 7, 2, 64)
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
	ADDQ $128, R11
	ADDQ $128, R12
	CMPQ R12, end-8(SP)
	JNE  cpair
	TILERELEASE
	RET
