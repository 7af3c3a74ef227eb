// Package fixed implements the quantized arithmetic used by the TPU
// datapath: 8-bit signed integer representations of real values (symmetric,
// scale-only quantization), saturating integer helpers,
// and the fixed-point rounding used when accumulator values are requantized
// on their way through the activation unit.
//
// The TPU performs 8-bit multiplies accumulated into 32-bit registers
// (Section 2 of the paper); quantization "transforms floating-point numbers
// into narrow integers — often just 8 bits — which are usually good enough
// for inference" (Section 1).
package fixed

import (
	"math"

	"tpusim/internal/cpu"
)

// vector selects the assembly row passes behind SatAddRow, QuantizeInto,
// DequantizeInto, DrainRow and AbsMax where the host has AVX2, and wide the
// AVX-512 passes of DrainRow and QuantizeInto where it also has AVX-512 VBMI.
// Each pass is bit-identical to the scalar loop beside it, which is the
// portable path and the oracle the tests hold the passes to. Only useVector
// and useWide write them.
var (
	vector = cpu.AVX2
	wide   = cpu.AVX2 && cpu.AVX512VBMI
)

// useVector turns the row passes on, where the host has them, or off, and
// reports whether they are on; on includes the AVX-512 passes where the host
// has them. It exists so that tests cover every path: this package's tests
// call it directly, other packages' tests go through systolic/kerneltest,
// which reaches it by linkname and turns the passes off on the portable
// kernel rung. The switch is process-wide.
func useVector(on bool) bool {
	vector = on && cpu.AVX2
	wide = vector && cpu.AVX512VBMI
	return vector
}

// useWide turns the AVX-512 passes off, leaving the AVX2 passes as they are,
// or back on where the host has them and the passes are on, and reports
// whether they are on: the AVX2 passes are what a host without AVX-512 runs.
func useWide(on bool) bool {
	wide = on && vector && cpu.AVX512VBMI
	return wide
}

// Params describes a symmetric quantization: real = Scale * q. Weights and
// activations alike use it, so zero is always exactly q = 0.
type Params struct {
	Scale float32
}

// Quantize maps a real value to int8 under p, with round-to-nearest-even and
// saturation to [-128, 127] (see roundSat for infinities and NaN).
func (p Params) Quantize(x float32) int8 {
	return roundSat(float64(x) / float64(p.Scale))
}

// QuantizeInto quantizes src into dst under p: dst[i] = p.Quantize(src[i])
// for every element of src. len(dst) must be at least len(src). Where the
// host has AVX2 it is one vector pass, eight elements at a time (sixteen
// where it has the AVX-512 passes), built as LUT.DrainRow's is with s = 1:
// it multiplies by r = 1/Scale in float32 and rounds, clamps and narrows
// wherever a guard proves that gives Quantize's int8, and a group with a
// lane the guard does not settle takes Quantize's own float64 divide. Either
// way the bytes are the same.
func QuantizeInto(dst []int8, src []float32, p Params) {
	dst = dst[:len(src)]
	n := 0
	if vector && len(src) >= 8 {
		d := float64(p.Scale)
		r := ratio(1, d)
		if wide && len(src) >= 16 {
			n = len(src) &^ 15
			quantizeAVX512(&dst[0], &src[0], n, d, r)
		}
		if m := len(src) &^ 7; m > n {
			quantizeAVX2(&dst[n], &src[n], m-n, d, r)
			n = m
		}
	}
	for i := n; i < len(src); i++ {
		dst[i] = p.Quantize(src[i])
	}
}

// roundSat rounds q half to even and saturates it to int8. It clamps in the
// float domain before converting, so every input has one answer on every
// architecture (Go leaves converting an out-of-range float to an integer to
// the implementation: amd64 yields MinInt32, arm64 saturates). Above 127, +Inf
// included, is 127; below -128, -Inf and NaN are -128.
func roundSat(q float64) int8 {
	switch {
	case q > math.MaxInt8:
		return math.MaxInt8
	case q >= math.MinInt8:
		return int8(math.RoundToEven(q))
	default: // below -128, or NaN
		return math.MinInt8
	}
}

// Dequantize maps an int8 back to the real line under p.
func (p Params) Dequantize(q int8) float32 {
	return p.Scale * float32(q)
}

// DequantizeInto dequantizes src into dst under p: dst[i] =
// p.Dequantize(src[i]) for every element of src. len(dst) must be at least
// len(src). Where the host has AVX2 it is one vector pass — sign-extend,
// convert, multiply, eight elements at a time — doing Dequantize's one
// float32 multiply, so the bits are the same.
func DequantizeInto(dst []float32, src []int8, p Params) {
	dst = dst[:len(src)]
	n := 0
	if vector && len(src) >= 8 {
		n = len(src) &^ 7
		dequantizeAVX2(&dst[0], &src[0], n, p.Scale)
	}
	for i := n; i < len(src); i++ {
		dst[i] = p.Dequantize(src[i])
	}
}

// ChooseParams picks symmetric quantization parameters covering [-absMax,
// absMax]. A zero absMax yields a unit scale so that quantization stays
// well-defined.
func ChooseParams(absMax float32) Params {
	if absMax <= 0 {
		return Params{Scale: 1.0 / 127.0}
	}
	return Params{Scale: absMax / 127.0}
}

// ChooseParamsFor scans data and returns symmetric parameters that cover it.
func ChooseParamsFor(data []float32) Params {
	return ChooseParams(AbsMax(data))
}

// AbsMax returns the largest |v| in data, 0 when data is empty. NaNs are
// ignored, so the result is never NaN; an infinity is returned as +Inf.
//
// The scalar loop compares bit patterns, without a branch: with the sign
// bit cleared a float's pattern orders as its magnitude does, +Inf
// (0x7f800000) above every finite one and every NaN above +Inf, so a NaN's
// pattern is set to 0 before it is compared. Where the host has AVX2 it is
// one vector pass (absMaxAVX2: VANDPS, then VMAXPS) over whole groups of
// eight lanes, the loop doing the rest.
func AbsMax(data []float32) float32 {
	var m uint32
	n := 0
	if vector && len(data) >= 8 {
		n = len(data) &^ 7
		m = math.Float32bits(absMaxAVX2(&data[0], n))
	}
	for _, v := range data[n:] {
		u := math.Float32bits(v) &^ (1 << 31)
		if u > 0x7f800000 {
			u = 0
		}
		m = max(m, u)
	}
	return math.Float32frombits(m)
}

// SatAdd32 adds two int32 values, saturating instead of wrapping. The TPU's
// 32-bit accumulators saturate on overflow rather than wrapping, which keeps
// an overflowing pre-activation pinned at the rail where the nonlinearity
// still maps it sensibly.
func SatAdd32(a, b int32) int32 {
	s := int64(a) + int64(b)
	switch {
	case s > math.MaxInt32:
		return math.MaxInt32
	case s < math.MinInt32:
		return math.MinInt32
	default:
		return int32(s)
	}
}

// SatAddRow adds src into dst lane by lane, saturating — dst[j] =
// SatAdd32(dst[j], src[j]) for every lane of dst — and returns the XOR of
// the lanes it wrote, the new row's parity word. len(src) must be at least
// len(dst). Where the host has AVX2 it is one vector pass: a wrapping add, an
// overflow mask (the sum's sign differs from both operands') and a blend
// with the rail on the operands' side, parity folded in.
func SatAddRow(dst, src []int32) (parity uint32) {
	src = src[:len(dst)]
	n := 0
	if vector && len(dst) >= 8 {
		n = len(dst) &^ 7
		parity = satAddAVX2(&dst[0], &src[0], n)
	}
	for j := n; j < len(dst); j++ {
		dst[j] = SatAdd32(dst[j], src[j])
		parity ^= uint32(dst[j])
	}
	return parity
}

// Requantize converts a 32-bit accumulator value holding a product at scale
// srcScale into an int8 under dst. This is the fixed-point step performed as
// activations leave the accumulators for the Unified Buffer.
func Requantize(acc int32, srcScale float32, dst Params) int8 {
	real := float64(acc) * float64(srcScale)
	return roundSat(real / float64(dst.Scale))
}
