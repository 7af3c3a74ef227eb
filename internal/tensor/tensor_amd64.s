#include "textflag.h"

// func axpyAVX2(dst, x *float32, n int, a float32)
//
// Eight lanes per register: the products a*x rounded by VMULPS, then added
// to dst and rounded by VADDPS — two IEEE roundings per lane, as the scalar
// loop does them. There is no FMA here on purpose: a fused multiply-add
// rounds once and would change the floats.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0

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
