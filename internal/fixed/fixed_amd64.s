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

// NEAR sets out to |y-k| + 2^-50*|y| for the float64 lanes y and their
// nearest integers k (Y8 holds the sign mask's complement, Y9 2^-50): below
// 0.5, y is farther from every half-integer than y*r can be from
// (y*s)/d. NaN and infinite y give NaN.
#define NEAR(y, k, out) \
	VSUBPD k, y, out;   \
	VANDPD Y8, out, out; \
	VANDPD Y8, y, Y6;   \
	VMULPD Y9, Y6, Y6;  \
	VADDPD Y6, out, out

// CLAMP4 clamps the four rounded lanes of k to [-128, 127] and narrows them
// to four int32 in x.
#define CLAMP4(k, x) \
	VMAXPD     Y15, k, k; \
	VMINPD     Y11, k, k; \
	VCVTPD2DQY k, x

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

// func drainAVX2(dst *int8, src *int32, n int, s, d, r float64, tab *[256]int8)
//
// Eight lanes at a time: y = src*r, rounded half to even (VROUNDPD mode 0)
// and clamped. That is (src*s)/d's answer wherever y is far enough from a
// half-integer (NEAR below 0.5 in every lane: see LUT.DrainRow); a group
// with a lane that is not takes the divide, REQUANT4, which is (src*s)/d
// itself. A NaN r fails every lane's check. The eight int8 are then looked
// up in tab.
TEXT ·drainAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         tab+48(FP), R9
	MOVQ         $0x8080808080808080, R8
	CONSTS
	VBROADCASTSD r+40(FP), Y14
	MOVQ         $0x3FE0000000000000, AX // 0.5
	VMOVQ        AX, X10
	VBROADCASTSD X10, Y10
	MOVQ         $0x3CD0000000000000, AX // 2^-50
	VMOVQ        AX, X9
	VBROADCASTSD X9, Y9
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X8
	VBROADCASTSD X8, Y8

lanes:
	VCVTDQ2PD (SI), Y0
	VCVTDQ2PD 16(SI), Y1
	VMULPD    Y14, Y0, Y0
	VMULPD    Y14, Y1, Y1
	VROUNDPD  $0, Y0, Y2
	VROUNDPD  $0, Y1, Y3
	NEAR(Y0, Y2, Y4)
	NEAR(Y1, Y3, Y5)
	VCMPPD    $0x11, Y10, Y4, Y4 // below 0.5, ordered: NaN fails
	VCMPPD    $0x11, Y10, Y5, Y5
	VANDPD    Y5, Y4, Y4
	VMOVMSKPD Y4, AX
	CMPL      AX, $15
	JNE       divide
	CLAMP4(Y2, X0)
	CLAMP4(Y3, X1)

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

// NEAR16 is NEAR on eight float64 lanes of a ZMM register (Z8 holds the sign
// mask's complement, Z9 2^-50).
#define NEAR16(y, k, out) \
	VSUBPD k, y, out;    \
	VPANDQ Z8, out, out; \
	VPANDQ Z8, y, Z7;    \
	VMULPD Z9, Z7, Z7;   \
	VADDPD Z7, out, out

// func drainAVX512(dst *int8, src *int32, n int, s, d, r float64, tab *[256]int8)
//
// drainAVX2 sixteen lanes at a time (n is a positive multiple of 16): the
// same float64 operations in the same order, eight lanes to a ZMM register
// (VRNDSCALEPD mode 0 is VROUNDPD's round half to even), and a group with a
// lane too near a half-integer takes the divide. The sixteen int8 are looked
// up in the table all at once: the table is four ZMM registers, Z20-Z23, and
// an index v+128 selects with its low seven bits within the half VPERMT2B
// reads (Z20-Z21 or Z22-Z23) and with its top bit, through K3, between the
// halves.
TEXT ·drainAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         tab+48(FP), R9
	VBROADCASTSD s+24(FP), Z12
	VBROADCASTSD d+32(FP), Z13
	VBROADCASTSD r+40(FP), Z14
	MOVQ         $0xC060000000000000, AX // -128
	VPBROADCASTQ AX, Z15
	MOVQ         $0x405FC00000000000, AX // 127
	VPBROADCASTQ AX, Z11
	MOVQ         $0x3FE0000000000000, AX // 0.5
	VPBROADCASTQ AX, Z10
	MOVQ         $0x3CD0000000000000, AX // 2^-50
	VPBROADCASTQ AX, Z9
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VPBROADCASTQ AX, Z8
	MOVL         $0x80808080, AX
	VPBROADCASTD AX, Z18
	VMOVDQU64    (R9), Z20
	VMOVDQU64    64(R9), Z21
	VMOVDQU64    128(R9), Z22
	VMOVDQU64    192(R9), Z23

lanes:
	VCVTDQ2PD   (SI), Z0
	VCVTDQ2PD   32(SI), Z1
	VMULPD      Z14, Z0, Z0
	VMULPD      Z14, Z1, Z1
	VRNDSCALEPD $0, Z0, Z2
	VRNDSCALEPD $0, Z1, Z3
	NEAR16(Z0, Z2, Z4)
	NEAR16(Z1, Z3, Z5)
	VCMPPD      $0x11, Z10, Z4, K1 // below 0.5, ordered: NaN fails
	VCMPPD      $0x11, Z10, Z5, K2
	KMOVW       K1, AX
	KMOVW       K2, BX
	ANDL        BX, AX
	CMPL        AX, $0xFF
	JNE         divide

clamp:
	VMAXPD       Z15, Z2, Z2 // a NaN lane, from the divide, is -128
	VMINPD       Z11, Z2, Z2
	VMAXPD       Z15, Z3, Z3
	VMINPD       Z11, Z3, Z3
	VCVTPD2DQ    Z2, Y16
	VCVTPD2DQ    Z3, Y17
	VINSERTI64X4 $1, Y17, Z16, Z16
	VPMOVSDB     Z16, X16
	VPXORD       Z18, Z16, Z16 // v+128
	VMOVDQA64    Z20, Z6
	VPERMT2B     Z21, Z16, Z6
	VMOVDQA64    Z22, Z7
	VPERMT2B     Z23, Z16, Z7
	VPMOVB2M     Z16, K3
	VMOVDQU8     Z7, K3, Z6
	VMOVDQU      X6, (DI)
	ADDQ         $64, SI
	ADDQ         $16, DI
	SUBQ         $16, CX
	JNZ          lanes

	// VZEROUPPER clears the upper halves of Z0-Z15 only. Left dirty, those
	// of Z16-Z31 would make every later SSE instruction (Go's scalar float
	// code) merge into them, slowing it down.
	VPXORD     Z16, Z16, Z16
	VPXORD     Z17, Z17, Z17
	VPXORD     Z18, Z18, Z18
	VPXORD     Z20, Z20, Z20
	VPXORD     Z21, Z21, Z21
	VPXORD     Z22, Z22, Z22
	VPXORD     Z23, Z23, Z23
	VZEROUPPER
	RET

divide:
	VCVTDQ2PD   (SI), Z2
	VCVTDQ2PD   32(SI), Z3
	VMULPD      Z12, Z2, Z2
	VMULPD      Z12, Z3, Z3
	VDIVPD      Z13, Z2, Z2
	VDIVPD      Z13, Z3, Z3
	VRNDSCALEPD $0, Z2, Z2
	VRNDSCALEPD $0, Z3, Z3
	JMP         clamp

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
