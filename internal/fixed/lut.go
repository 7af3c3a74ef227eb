package fixed

import "math"

// Nonlinearity identifies one of the activation functions implemented by the
// TPU's Activation Unit ("with options for ReLU, Sigmoid, and so on").
type Nonlinearity uint8

const (
	// Identity passes accumulator values through requantization unchanged.
	Identity Nonlinearity = iota
	// ReLU implements max(0, x), the MLP/CNN nonlinearity of Table 1.
	ReLU
	// Sigmoid implements 1/(1+e^-x), used by the LSTM gates.
	Sigmoid
	// Tanh implements tanh(x), used by LSTM cell updates.
	Tanh
)

// String returns the conventional name of the nonlinearity.
func (n Nonlinearity) String() string {
	switch n {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return "unknown"
	}
}

// Apply evaluates the nonlinearity on a real value. This is the reference
// definition the lookup tables are built from.
func (n Nonlinearity) Apply(x float64) float64 {
	switch n {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// LUT is a 256-entry activation lookup table mapping a requantized int8
// pre-activation directly to an int8 post-activation. Hardware activation
// units are table-driven for exactly this reason: one table lookup per value
// at 256 values per cycle, regardless of the transcendental being computed.
type LUT struct {
	Table [256]int8
}

// NewLUT builds the lookup table for fn from an input quantization domain to
// an output quantization domain.
func NewLUT(fn Nonlinearity, in, out Params) *LUT {
	l := &LUT{}
	for i := 0; i < 256; i++ {
		q := int8(i - 128)
		x := float64(in.Dequantize(q))
		y := fn.Apply(x)
		l.Table[i] = out.Quantize(float32(y))
	}
	return l
}

// Lookup applies the table to a single int8 value.
func (l *LUT) Lookup(q int8) int8 {
	return l.Table[int(q)+128]
}

// DrainRow is the batched activation drain: it requantizes one accumulator
// row holding products at srcScale into the pre-activation domain and maps
// each value through the table, dst[j] = Lookup(Requantize(acc[j],
// srcScale, pre)). len(acc) must be at least len(dst).
//
// Where the host has AVX2 the requantize is one vector pass, eight lanes at
// a time (sixteen where it has AVX-512 VBMI), in float32: z =
// float32(x)*r, with r = float32(s/d) the ratio of the source and
// pre-activation scales, rounded half to even, clamped to [-128, 127],
// narrowed and looked up in the table. Requantize computes y = (x*s)/d in
// float64. With q = x*s/d exactly, z is three float32 roundings from q (x,
// r, the product) and y is within 2^-51*|q| of it, so |y - z| < 2^-22*|z|.
// Rounding and the clamp step only at half-integers, so a lane is settled —
// y gives z's int8 — where |z - round(z)| + 2^-20*|z| < 0.5, or where
// |z| >= 256, which y clamps to the same rail. A group with a lane that is
// not settled — a tie, its neighbours, NaN — takes Requantize's own float64
// multiply and divide in the same order, with roundSat's clamp, and so does
// every group when r is not a normal float32. Either way the row is
// bit-identical.
func (l *LUT) DrainRow(dst []int8, acc []int32, srcScale float32, pre Params) {
	acc = acc[:len(dst)]
	s, d := float64(srcScale), float64(pre.Scale)
	tab := &l.Table
	n := 0
	if vector && len(dst) >= 8 {
		r := ratio(s, d)
		if wide && len(dst) >= 16 {
			n = len(dst) &^ 15
			drainAVX512(&dst[0], &acc[0], n, s, d, r, tab)
		}
		if m := len(dst) &^ 7; m > n {
			drainAVX2(&dst[n], &acc[n], m-n, s, d, r, tab)
			n = m
		}
	}
	for j := n; j < len(dst); j++ {
		dst[j] = tab[int(roundSat(float64(acc[j])*s/d))+128]
	}
}

// ratio returns s/d rounded to float32 for the row passes' multiply, or NaN
// — which sends every group to the divide — where that is zero, subnormal,
// infinite or NaN: only a normal float32 is within 2^-24 of s/d relatively.
func ratio(s, d float64) float32 {
	r := float32(s / d)
	if a := math.Abs(float64(r)); !(a >= 0x1p-126 && a <= math.MaxFloat32) {
		return float32(math.NaN())
	}
	return r
}
