#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports OSXSAVE and AVX (leaf 1, ECX bits 27 and
// 28), the OS has enabled XMM and YMM state (XCR0 bits 1 and 2), and leaf 7
// reports AVX2 (EBX bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)
done:
	RET

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
