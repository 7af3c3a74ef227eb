#include "textflag.h"

// rowConsts are the row passes' constants: -128 and 127 as float64, then
// 0.5, 2^-20, the float32 sign mask's complement, 256 and 127 as float32.
DATA rowConsts<>+0(SB)/8, $0xC060000000000000
DATA rowConsts<>+8(SB)/8, $0x405FC00000000000
DATA rowConsts<>+16(SB)/4, $0x3F000000
DATA rowConsts<>+20(SB)/4, $0x35800000
DATA rowConsts<>+24(SB)/4, $0x7FFFFFFF
DATA rowConsts<>+28(SB)/4, $0x43800000
DATA rowConsts<>+32(SB)/4, $0x42FE0000
GLOBL rowConsts<>(SB), RODATA|NOPTR, $36

// CONSTS broadcasts the divide's operands and rails, and the float32 pass's
// constants, d and r read from the frame at dpos and rpos: Y13 = d, Y15 =
// -128 and Y11 = 127 (float64), Y14 = r, Y10 = 0.5, Y9 = 2^-20, Y8 the
// float32 sign mask's complement, Y7 = 256 and Y5 = 127 (float32).
#define CONSTS(dpos, rpos) \
	VBROADCASTSD dpos(FP), Y13;              \
	VBROADCASTSD rowConsts<>+0(SB), Y15;     \
	VBROADCASTSD rowConsts<>+8(SB), Y11;     \
	VBROADCASTSS rpos(FP), Y14;              \
	VBROADCASTSS rowConsts<>+16(SB), Y10;    \
	VBROADCASTSS rowConsts<>+20(SB), Y9;     \
	VBROADCASTSS rowConsts<>+24(SB), Y8;     \
	VBROADCASTSS rowConsts<>+28(SB), Y7;     \
	VBROADCASTSS rowConsts<>+32(SB), Y5

// QUOT4 takes the four float64 lanes of y through y/d, rounds them half to
// even (VROUNDPD mode 0), clamps them to [-128, 127] and narrows them to four
// int32 in x. VMAXPD returns its second source, -128, when either operand is
// NaN, so NaN lands on -128 as roundSat defines; after the clamp every lane
// is an integer in range and the conversion is exact.
#define QUOT4(y, x) \
	VDIVPD     Y13, y, y; \
	VROUNDPD   $0, y, y;  \
	VMAXPD     Y15, y, y; \
	VMINPD     Y11, y, y; \
	VCVTPD2DQY y, x

// REQUANT4 is QUOT4 of y*s: Requantize's (x*s)/d, rounded and clamped.
#define REQUANT4(y, x) \
	VMULPD Y12, y, y; \
	QUOT4(y, x)

// SETTLE8 rounds the eight float32 lanes of z half to even (VROUNDPS mode 0)
// into k and sets AX's low eight bits to the lanes whose rounding is settled:
// |z-k| + 2^-20*|z| < 0.5, or |z| >= 256 (both ordered, so a NaN lane is not
// settled). See LUT.DrainRow for why a settled lane's k is the divide's.
#define SETTLE8(z, k) \
	VROUNDPS  $0, z, k;          \
	VSUBPS    k, z, Y2;          \
	VANDPS    Y8, Y2, Y2;        \
	VANDPS    Y8, z, Y3;         \
	VMULPS    Y9, Y3, Y4;        \
	VADDPS    Y4, Y2, Y2;        \
	VCMPPS    $0x11, Y10, Y2, Y2; \
	VCMPPS    $0x1D, Y7, Y3, Y3; \
	VORPS     Y3, Y2, Y2;        \
	VMOVMSKPS Y2, AX

// NARROW8 converts the eight rounded float32 lanes of k, none of them NaN,
// to int32, lanes 0-3 in X0 and 4-7 in X1, clamped to 127 above first:
// VCVTPS2DQ turns a lane below -2^31 into MinInt32, so every lane below -128
// is at most -128 and the saturating packs that follow clamp it below.
#define NARROW8(k) \
	VMINPS       Y5, k, k; \
	VCVTPS2DQ    k, Y0;    \
	VEXTRACTI128 $1, Y0, X1

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

// LOOKUP2 maps the two table indices in AL and AH through the table at R9
// into dst[k] and dst[k+1], and moves AX on to the next two.
#define LOOKUP2(k) \
	MOVBLZX AL, BX;         \
	MOVBLZX AH, DX;         \
	MOVBLZX (R9)(BX*1), BX; \
	MOVBLZX (R9)(DX*1), DX; \
	MOVB    BL, (k)(DI);    \
	MOVB    DL, (k+1)(DI);  \
	SHRQ    $16, AX

// LOOKUP8 packs the eight int32 in X0 (lanes 0-3) and X1 (4-7), all in
// [-128, 127], to eight int8, turns each v into its table index v+128 by
// flipping its sign bit (R8 holds 0x80 in every byte) and stores the eight
// table entries at DI.
#define LOOKUP8 \
	VPACKSSDW X1, X0, X0; \
	VPACKSSWB X0, X0, X0; \
	VMOVQ     X0, AX;     \
	XORQ      R8, AX;     \
	LOOKUP2(0);           \
	LOOKUP2(2);           \
	LOOKUP2(4);           \
	LOOKUP2(6)

// func drainAVX2(dst *int8, src *int32, n int, s, d float64, r float32, tab *[256]int8)
//
// Eight lanes at a time: z = float32(src)*r in float32, rounded half to even
// and clamped. That is (src*s)/d's answer wherever SETTLE8 settles every
// lane (see LUT.DrainRow); a group with a lane it does not takes the divide,
// REQUANT4, which is (src*s)/d itself in float64. A NaN r settles no lane.
// The eight int8 are then looked up in tab.
TEXT ·drainAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         tab+48(FP), R9
	MOVQ         $0x8080808080808080, R8
	VBROADCASTSD s+24(FP), Y12
	CONSTS(d+32, r+40)

lanes:
	VCVTDQ2PS (SI), Y0
	VMULPS    Y14, Y0, Y0
	SETTLE8(Y0, Y1)
	CMPL      AX, $0xFF
	JNE       divide
	NARROW8(Y1)

lookup:
	LOOKUP8
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  lanes
	VZEROUPPER
	RET

divide:
	VCVTDQ2PD (SI), Y0
	VCVTDQ2PD 16(SI), Y1
	REQUANT4(Y0, X0)
	REQUANT4(Y1, X1)
	JMP       lookup

// WIDECONSTS is CONSTS on ZMM registers: Z13 = d, Z15 = -128 and Z11 = 127
// (float64), Z14 = r, Z10 = 0.5, Z9 = 2^-20, Z8 the sign mask's complement,
// Z7 = 256 and Z5 = 127 (float32).
#define WIDECONSTS(dpos, rpos) \
	VBROADCASTSD dpos(FP), Z13;              \
	VBROADCASTSD rowConsts<>+0(SB), Z15;     \
	VBROADCASTSD rowConsts<>+8(SB), Z11;     \
	VBROADCASTSS rpos(FP), Z14;              \
	VBROADCASTSS rowConsts<>+16(SB), Z10;    \
	VBROADCASTSS rowConsts<>+20(SB), Z9;     \
	VBROADCASTSS rowConsts<>+24(SB), Z8;     \
	VBROADCASTSS rowConsts<>+28(SB), Z7;     \
	VBROADCASTSS rowConsts<>+32(SB), Z5

// SETTLE16 is SETTLE8 on sixteen lanes: k is z rounded half to even
// (VRNDSCALEPS mode 0), and CF is set after it exactly when every lane is
// settled (KORTESTW of the two conditions' masks).
#define SETTLE16(z, k) \
	VRNDSCALEPS $0, z, k;         \
	VSUBPS      k, z, Z2;         \
	VPANDD      Z8, Z2, Z2;       \
	VPANDD      Z8, z, Z3;        \
	VMULPS      Z9, Z3, Z4;       \
	VADDPS      Z4, Z2, Z2;       \
	VCMPPS      $0x11, Z10, Z2, K1; \
	VCMPPS      $0x1D, Z7, Z3, K2; \
	KORTESTW    K2, K1

// NARROW16 is NARROW8 on sixteen lanes, into sixteen int32 in out, which
// VPMOVSDB then clamps below as it narrows.
#define NARROW16(k, out) \
	VMINPS    Z5, k, k; \
	VCVTPS2DQ k, out

// QUOT16 is QUOT4 on the sixteen float64 lanes of Z2 and Z3, eight each:
// divided by d, rounded half to even (VRNDSCALEPD mode 0), clamped (NaN to
// -128) and narrowed to sixteen int32 in out.
#define QUOT16(out) \
	VDIVPD       Z13, Z2, Z2; \
	VDIVPD       Z13, Z3, Z3; \
	VRNDSCALEPD  $0, Z2, Z2;  \
	VRNDSCALEPD  $0, Z3, Z3;  \
	VMAXPD       Z15, Z2, Z2; \
	VMINPD       Z11, Z2, Z2; \
	VMAXPD       Z15, Z3, Z3; \
	VMINPD       Z11, Z3, Z3; \
	VCVTPD2DQ    Z2, Y2;      \
	VCVTPD2DQ    Z3, Y3;      \
	VINSERTI64X4 $1, Y3, Z2, out

// func drainAVX512(dst *int8, src *int32, n int, s, d float64, r float32, tab *[256]int8)
//
// drainAVX2 sixteen lanes at a time (n is a positive multiple of 16): the
// same float32 multiply and guard, sixteen lanes to a ZMM register, and a
// group with a lane the guard does not settle takes the divide, eight float64
// lanes to a register. The sixteen int8 are looked up in the table all at
// once: the table is four ZMM registers, Z20-Z23, and an index v+128 selects
// with its low seven bits within the half VPERMT2B reads (Z20-Z21 or Z22-Z23)
// and with its top bit, through K3, between the halves.
TEXT ·drainAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         tab+48(FP), R9
	VBROADCASTSD s+24(FP), Z12
	WIDECONSTS(d+32, r+40)
	MOVL         $0x80808080, AX
	VPBROADCASTD AX, Z18
	VMOVDQU64    (R9), Z20
	VMOVDQU64    64(R9), Z21
	VMOVDQU64    128(R9), Z22
	VMOVDQU64    192(R9), Z23

lanes:
	VCVTDQ2PS (SI), Z0
	VMULPS    Z14, Z0, Z0
	SETTLE16(Z0, Z1)
	JCC       divide
	NARROW16(Z1, Z1)

lookup:
	VPMOVSDB  Z1, X16
	VPXORD    Z18, Z16, Z16 // v+128
	VMOVDQA64 Z20, Z2
	VPERMT2B  Z21, Z16, Z2
	VMOVDQA64 Z22, Z3
	VPERMT2B  Z23, Z16, Z3
	VPMOVB2M  Z16, K3
	VMOVDQU8  Z3, K3, Z2
	VMOVDQU   X2, (DI)
	ADDQ      $64, SI
	ADDQ      $16, DI
	SUBQ      $16, CX
	JNZ       lanes

	// VZEROUPPER clears the upper halves of Z0-Z15 only. Left dirty, those
	// of Z16-Z31 would make every later SSE instruction (Go's scalar float
	// code) merge into them, slowing it down.
	VPXORD     Z16, Z16, Z16
	VPXORD     Z18, Z18, Z18
	VPXORD     Z20, Z20, Z20
	VPXORD     Z21, Z21, Z21
	VPXORD     Z22, Z22, Z22
	VPXORD     Z23, Z23, Z23
	VZEROUPPER
	RET

divide:
	VCVTDQ2PD (SI), Z2
	VCVTDQ2PD 32(SI), Z3
	VMULPD    Z12, Z2, Z2
	VMULPD    Z12, Z3, Z3
	QUOT16(Z1)
	JMP       lookup

// func quantizeAVX2(dst *int8, src *float32, n int, d float64, r float32)
//
// drainAVX2's pass on float32 sources, with no table: z = src*r, and a group
// with a lane the guard does not settle takes Quantize's float64 divide.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CONSTS(d+24, r+32)

lanes:
	VMULPS (SI), Y14, Y0
	SETTLE8(Y0, Y1)
	CMPL   AX, $0xFF
	JNE    divide
	NARROW8(Y1)

store:
	STORE8
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNZ  lanes
	VZEROUPPER
	RET

divide:
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	QUOT4(Y0, X0)
	QUOT4(Y1, X1)
	JMP       store

// func quantizeAVX512(dst *int8, src *float32, n int, d float64, r float32)
//
// quantizeAVX2 sixteen lanes at a time (n is a positive multiple of 16), the
// divide eight float64 lanes to a register. It uses Z0-Z15 only, which
// VZEROUPPER leaves clean.
TEXT ·quantizeAVX512(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	WIDECONSTS(d+24, r+32)

lanes:
	VMULPS (SI), Z14, Z0
	SETTLE16(Z0, Z1)
	JCC    divide
	NARROW16(Z1, Z1)

store:
	VPMOVSDB Z1, (DI)
	ADDQ     $64, SI
	ADDQ     $16, DI
	SUBQ     $16, CX
	JNZ      lanes
	VZEROUPPER
	RET

divide:
	VCVTPS2PD (SI), Z2
	VCVTPS2PD 32(SI), Z3
	QUOT16(Z1)
	JMP       store

// func dequantizeAVX2(dst *float32, src *int8, n int, scale float32)
//
// Eight lanes per register: sign-extend eight int8 to int32, convert them to
// float32 (exact) and multiply by scale, the scale the first operand as in
// Dequantize, so a NaN scale comes through with its own payload.
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-28
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Y1

lanes:
	VPMOVSXBD (SI), Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y0, Y1, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       lanes
	VZEROUPPER
	RET

// func absMaxAVX2(src *float32, n int) float32
//
// Eight lanes per register, four registers of running maxima: VANDPS clears
// each sign bit, and VMAXPS keeps the magnitude, its first source, only
// where it is greater than the running maximum, its second: a NaN compares
// false and is never kept, +Inf is kept, and with the sign bits clear there
// is no -0 to tie with +0. The maxima start at +0 and are never NaN, so
// folding them together in any order gives the same bits.
TEXT ·absMaxAVX2(SB), NOSPLIT, $0-20
	MOVQ         src+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3
	CMPQ         CX, $32
	JB           tail
	PCALIGN      $32

blocks:
	VANDPS (SI), Y15, Y4
	VANDPS 32(SI), Y15, Y5
	VANDPS 64(SI), Y15, Y6
	VANDPS 96(SI), Y15, Y7
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	ADDQ   $128, SI
	SUBQ   $32, CX
	CMPQ   CX, $32
	JAE    blocks

tail:
	TESTQ CX, CX
	JZ    fold

lanes:
	VANDPS (SI), Y15, Y4
	VMAXPS Y0, Y4, Y0
	ADDQ   $32, SI
	SUBQ   $8, CX
	JNZ    lanes

fold:
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0x4E, X0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0xB1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET
