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
// Where the host has AVX2 the requantize is one vector pass, four lanes per
// register: widen to float64, multiply by the source scale, divide by the
// pre-activation scale, round half to even, clamp to
// [-128, 127] (NaN to -128), narrow and saturating-pack to int8. Those are
// the IEEE float64 operations of Requantize in the same order, and the clamp
// is roundSat's, so the row is bit-identical. The table is then looked up
// from the packed row.
func (l *LUT) DrainRow(dst []int8, acc []int32, srcScale float32, pre Params) {
	acc = acc[:len(dst)]
	s, d := float64(srcScale), float64(pre.Scale)
	tab := &l.Table
	n := 0
	if vector && len(dst) >= 8 {
		n = len(dst) &^ 7
		requantizeAVX2(&dst[0], &acc[0], n, s, d)
		for j, v := range dst[:n] {
			dst[j] = tab[int(v)+128]
		}
	}
	for j := n; j < len(dst); j++ {
		dst[j] = tab[int(roundSat(float64(acc[j])*s/d))+128]
	}
}
