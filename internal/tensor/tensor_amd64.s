#include "textflag.h"

// func axpyAVX2(dst, x *float32, n int, a float32)
//
// Eight lanes per register: the products a*x rounded by VMULPS, then added
// to dst and rounded by VADDPS — two IEEE roundings per lane, as the scalar
// loop does them. There is no FMA here on purpose: a fused multiply-add
// rounds once and would change the floats. The loop is aligned to 32
// bytes: where it straddled a 64-byte boundary, because the function
// started at 32 mod 64, the axpy pass ran ~19% slower.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	PCALIGN      $32

lanes:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     lanes
	VZEROUPPER
	RET

// ROW adds one activation's products to a row's 64 accumulators. K1 is set
// where the activation at src is nonzero (VCMPPS predicate 4, NEQ_UQ, so a
// NaN counts as nonzero) and clear where it is ±0, in every lane at once.
// Each VMULPS rounds the broadcast activation times sixteen weights (Z16-Z19)
// and, under K1 with zeroing, writes +0 instead where the activation is
// zero; VADDPS then rounds the add. A zero activation so adds +0, which
// leaves an accumulator as it is: one that starts at +0 never becomes -0,
// and the NaN of a 0*Inf product never lands.
#define ROW(src, acc0, acc1, acc2, acc3) \
	VCMPPS.BCST   $4, src, Z20, K1;   \
	VMULPS.BCST.Z src, Z16, K1, Z24;  \
	VMULPS.BCST.Z src, Z17, K1, Z25;  \
	VMULPS.BCST.Z src, Z18, K1, Z26;  \
	VMULPS.BCST.Z src, Z19, K1, Z27;  \
	VADDPS        Z24, acc0, acc0;    \
	VADDPS        Z25, acc1, acc1;    \
	VADDPS        Z26, acc2, acc2;    \
	VADDPS        Z27, acc3, acc3

// func gemmAVX512(a *float32, lda int, w *float32, ldw int, out *float32, ldo int, k int)
//
// out[i][j] += a[i][kk] * w[kk][j] for four rows i, 64 columns j and kk < k,
// k > 0; lda, ldw and ldo are the row strides in floats. The 4x64 block of
// out lives in Z0-Z15 for the whole pass: it is loaded once and stored once,
// and each kk loads its 64 weights once for all four rows. Each output still
// adds its rounded products in kk order, and there is no FMA, so the floats
// are the scalar loop's. The registers above Z15 it uses are zeroed before
// VZEROUPPER, which clears only the upper halves of Z0-Z15: dirty ones slow
// every later SSE instruction.
TEXT ·gemmAVX512(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ lda+8(FP), AX
	SHLQ $2, AX
	MOVQ w+16(FP), DX
	MOVQ ldw+24(FP), BX
	SHLQ $2, BX
	MOVQ out+32(FP), DI
	MOVQ ldo+40(FP), R8
	SHLQ $2, R8
	MOVQ k+48(FP), CX

	LEAQ    (DI)(R8*1), R9
	LEAQ    (R9)(R8*1), R10
	LEAQ    (R10)(R8*1), R11
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS (R9), Z4
	VMOVUPS 64(R9), Z5
	VMOVUPS 128(R9), Z6
	VMOVUPS 192(R9), Z7
	VMOVUPS (R10), Z8
	VMOVUPS 64(R10), Z9
	VMOVUPS 128(R10), Z10
	VMOVUPS 192(R10), Z11
	VMOVUPS (R11), Z12
	VMOVUPS 64(R11), Z13
	VMOVUPS 128(R11), Z14
	VMOVUPS 192(R11), Z15
	VPXORD  Z20, Z20, Z20
	LEAQ    (SI)(AX*2), R12
	ADDQ    AX, R12
	PCALIGN $32

depth:
	VMOVUPS (DX), Z16
	VMOVUPS 64(DX), Z17
	VMOVUPS 128(DX), Z18
	VMOVUPS 192(DX), Z19
	ROW((SI), Z0, Z1, Z2, Z3)
	ROW((SI)(AX*1), Z4, Z5, Z6, Z7)
	ROW((SI)(AX*2), Z8, Z9, Z10, Z11)
	ROW((R12), Z12, Z13, Z14, Z15)
	ADDQ    $4, SI
	ADDQ    $4, R12
	ADDQ    BX, DX
	DECQ    CX
	JNZ     depth

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (R9)
	VMOVUPS Z5, 64(R9)
	VMOVUPS Z6, 128(R9)
	VMOVUPS Z7, 192(R9)
	VMOVUPS Z8, (R10)
	VMOVUPS Z9, 64(R10)
	VMOVUPS Z10, 128(R10)
	VMOVUPS Z11, 192(R10)
	VMOVUPS Z12, (R11)
	VMOVUPS Z13, 64(R11)
	VMOVUPS Z14, 128(R11)
	VMOVUPS Z15, 192(R11)
	VPXORD  Z16, Z16, Z16
	VPXORD  Z17, Z17, Z17
	VPXORD  Z18, Z18, Z18
	VPXORD  Z19, Z19, Z19
	VPXORD  Z20, Z20, Z20
	VPXORD  Z24, Z24, Z24
	VPXORD  Z25, Z25, Z25
	VPXORD  Z26, Z26, Z26
	VPXORD  Z27, Z27, Z27
	VZEROUPPER
	RET
