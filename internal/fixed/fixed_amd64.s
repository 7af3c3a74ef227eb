#include "textflag.h"

// CONSTS broadcasts the pass's operands and the int8 rails: Y12 = s,
// Y13 = d, Y15 = -128, Y11 = 127.
#define CONSTS \
	VBROADCASTSD s+24(FP), Y12;          \
	VBROADCASTSD d+32(FP), Y13;          \
	MOVQ         $0xC060000000000000, AX; \
	VMOVQ        AX, X15;                \
	VBROADCASTSD X15, Y15;               \
	MOVQ         $0x405FC00000000000, AX; \
	VMOVQ        AX, X11;                \
	VBROADCASTSD X11, Y11

// REQUANT4 takes the four float64 lanes of y through (y*s)/d, rounds
// them half to even (VROUNDPD mode 0), clamps them to [-128, 127] and
// narrows them to four int32 in x. VMAXPD returns its second source, -128,
// when either operand is NaN, so NaN lands on -128 as roundSat defines;
// after the clamp every lane is an integer in range and the conversion is
// exact.
#define REQUANT4(y, x) \
	VMULPD     Y12, y, y; \
	VDIVPD     Y13, y, y; \
	VROUNDPD   $0, y, y;  \
	VMAXPD     Y15, y, y; \
	VMINPD     Y11, y, y; \
	VCVTPD2DQY y, x

// STORE8 packs the eight int32 in X0 (lanes 0-3) and X1 (4-7), all in
// [-128, 127], to eight int8 at DI.
#define STORE8 \
	VPACKSSDW X1, X0, X0; \
	VPACKSSWB X0, X0, X0; \
	VMOVQ     X0, (DI)

// func satAddAVX2(dst, src *int32, n int) uint32
//
// Eight lanes per register: s = a + b wrapping; the add overflowed exactly
// where s's sign differs from both a's and b's, i.e. where (a^s)&(b^s) has
// its sign bit set, and then a and b share a sign, so the rail is MaxInt32
// for a >= 0 and MinInt32 for a < 0 — (a>>31) ^ 0x7fffffff. VBLENDVPS picks
// the rail by that sign bit. The XOR of every stored lane is folded into Y7
// and returned as the row's parity word.
TEXT ·satAddAVX2(SB), NOSPLIT, $0-28
	MOVQ     dst+0(FP), DI
	MOVQ     src+8(FP), SI
	MOVQ     n+16(FP), CX
	VPXOR    Y7, Y7, Y7
	VPCMPEQD Y6, Y6, Y6
	VPSRLD   $1, Y6, Y6 // 0x7fffffff

lanes:
	VMOVDQU   (DI), Y0
	VMOVDQU   (SI), Y1
	VPADDD    Y1, Y0, Y2
	VPXOR     Y2, Y0, Y3
	VPXOR     Y2, Y1, Y4
	VPAND     Y4, Y3, Y3 // sign bit: overflow
	VPSRAD    $31, Y0, Y4
	VPXOR     Y6, Y4, Y4 // the rail on a's side
	VBLENDVPS Y3, Y4, Y2, Y2
	VMOVDQU   Y2, (DI)
	VPXOR     Y2, Y7, Y7
	ADDQ      $32, DI
	ADDQ      $32, SI
	SUBQ      $8, CX
	JNZ       lanes

	VEXTRACTI128 $1, Y7, X0
	VPXOR        X0, X7, X7
	VPSHUFD      $0x4E, X7, X0
	VPXOR        X0, X7, X7
	VPSHUFD      $0xB1, X7, X0
	VPXOR        X0, X7, X7
	VMOVD        X7, AX
	MOVL         AX, ret+24(FP)
	VZEROUPPER
	RET

// func requantizeAVX2(dst *int8, src *int32, n int, s, d float64)
TEXT ·requantizeAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CONSTS

lanes:
	VCVTDQ2PD (SI), Y0
	VCVTDQ2PD 16(SI), Y1
	REQUANT4(Y0, X0)
	REQUANT4(Y1, X1)
	STORE8
	ADDQ      $32, SI
	ADDQ      $8, DI
	SUBQ      $8, CX
	JNZ       lanes
	VZEROUPPER
	RET

// func quantizeAVX2(dst *int8, src *float32, n int, s, d float64)
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CONSTS

lanes:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	REQUANT4(Y0, X0)
	REQUANT4(Y1, X1)
	STORE8
	ADDQ      $32, SI
	ADDQ      $8, DI
	SUBQ      $8, CX
	JNZ       lanes
	VZEROUPPER
	RET
