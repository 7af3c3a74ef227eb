package fixed

import (
	"encoding/binary"
	"math"
	"testing"
)

// paths are the ways the row passes can run: the scalar loops, the AVX2
// passes, and the AVX2 passes with DrainRow's AVX-512 pass.
var paths = []struct {
	name         string
	vector, wide bool
}{{"scalar", false, false}, {"vector", true, false}, {"wide", true, true}}

// eachPath runs f on each path the host has, and leaves the passes on.
func eachPath(t testing.TB, f func(path string)) {
	t.Helper()
	defer useVector(true)
	for _, p := range paths {
		if useVector(p.vector) != p.vector || useWide(p.wide) != p.wide {
			continue
		}
		f(p.name)
	}
}

// TestRequantizeOutOfRange pins the requantization rule for values int32
// cannot hold, which Go leaves to the architecture when a float is converted
// unclamped: at or above 2^31 (+Inf included) is 127, at or below -2^31
// (-Inf included) and NaN are -128. Every entry point obeys it on both paths.
func TestRequantizeOutOfRange(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	unit := Params{Scale: 1}
	cases := []struct {
		name     string
		acc      int32
		srcScale float32
		pre      Params
		want     int8
	}{
		{"2^31", 1 << 30, 2, unit, 127},
		{"MaxInt32*2", math.MaxInt32, 2, unit, 127},
		{"MinInt32*2", math.MinInt32, 2, unit, -128},
		{"+Inf", 1, inf, unit, 127},
		{"-Inf", -1, inf, unit, -128},
		{"NaN scale", 5, nan, unit, -128},
		{"0*Inf", 0, inf, unit, -128},
	}
	lut := NewLUT(Identity, unit, unit)
	for _, c := range cases {
		if got := Requantize(c.acc, c.srcScale, c.pre); got != c.want {
			t.Errorf("%s: Requantize = %d, want %d", c.name, got, c.want)
		}
		eachPath(t, func(path string) {
			var acc [9]int32 // one full vector of lanes and a scalar tail
			var dst [9]int8
			for i := range acc {
				acc[i] = c.acc
			}
			lut.DrainRow(dst[:], acc[:], c.srcScale, c.pre)
			for i, v := range dst {
				if v != c.want {
					t.Errorf("%s: %s DrainRow lane %d = %d, want %d", c.name, path, i, v, c.want)
				}
			}
		})
	}
	quant := []struct {
		x    float32
		want int8
	}{
		{1 << 31, 127}, {3e9, 127}, {inf, 127}, {-3e9, -128}, {-inf, -128}, {nan, -128},
	}
	for _, c := range quant {
		if got := unit.Quantize(c.x); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.x, got, c.want)
		}
		eachPath(t, func(path string) {
			src := make([]float32, 9)
			dst := make([]int8, 9)
			for i := range src {
				src[i] = c.x
			}
			QuantizeInto(dst, src, unit)
			for i, v := range dst {
				if v != c.want {
					t.Errorf("%s QuantizeInto(%v) lane %d = %d, want %d", path, c.x, i, v, c.want)
				}
			}
		})
	}
}

// int32s decodes raw as little-endian int32 lanes, at most 2*256 of them.
func int32s(raw []byte) []int32 {
	v := make([]int32, min(len(raw)/4, 512))
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return v
}

// FuzzDrainRow holds DrainRow, on both paths, to the per-element definition
// Lookup(Requantize(acc, srcScale, pre)) for every table shape: identity,
// ReLU, sigmoid and tanh. Seeds put ties at x.5 in every
// lane (mirrored by a negative source scale), sums at the ±2^31 rails,
// scales that overflow to ±Inf and NaN, and rows whose length leaves a
// scalar tail.
func FuzzDrainRow(f *testing.F) {
	row := func(vals ...int32) []byte {
		b := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	}
	ties := row(1, 3, 5, 7, -1, -3, -5, -7, 253, 255, 257, -255, -257, 9, 11, 13, 15)
	rails := row(math.MaxInt32, math.MinInt32, math.MaxInt32-1, math.MinInt32+1, 1<<30, -(1 << 30), 0, -1, 255)
	for fn := uint8(0); fn < 4; fn++ {
		f.Add(ties, float32(0.5), float32(1), fn)
		f.Add(ties, float32(-0.5), float32(1), fn)
		f.Add(rails, float32(1), float32(1), fn)
		f.Add(rails, float32(3), float32(1e-3), fn)
		f.Add(rails, float32(math.NaN()), float32(1), fn)
		f.Add(rails, float32(1), float32(0), fn)
		f.Add(ties, float32(0.02), float32(0.1), fn)
		for _, c := range requantizeCorpus() {
			f.Add(row(c.acc...), c.s, c.d, fn)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, srcScale, preScale float32, fn uint8) {
		acc := int32s(raw)
		pre := Params{Scale: preScale}
		nl := Nonlinearity(fn % 4)
		lut := NewLUT(nl, pre, OutputParams(nl, pre))
		want := make([]int8, len(acc))
		for j, a := range acc {
			want[j] = lut.Lookup(Requantize(a, srcScale, pre))
		}
		eachPath(t, func(path string) {
			got := make([]int8, len(acc))
			lut.DrainRow(got, acc, srcScale, pre)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s %v acc[%d]=%d s=%v pre=%+v: got %d, want %d",
						path, nl, j, acc[j], srcScale, pre, got[j], want[j])
				}
			}
		})
	})
}

// requantizeCase is one accumulator row and scale pair of the requantize
// exactness corpus.
type requantizeCase struct {
	name string
	acc  []int32
	s, d float32
}

// requantizeCorpus is where DrainRow's multiply by r = s/d could part from
// Requantize's (x*s)/d: values on a rounding step or a float64 ulp from one,
// the accumulator rails, and scale pairs whose ratio is not a normal number.
// Each value fills a row of 17 lanes, two vector groups and a scalar tail; a
// mixed row puts one tie among ordinary lanes.
func requantizeCorpus() []requantizeCase {
	fill := func(v int32) []int32 {
		acc := make([]int32, 17)
		for i := range acc {
			acc[i] = v
		}
		return acc
	}
	bits := math.Float32frombits
	cases := []requantizeCase{
		// x*s/d is exactly k+1/2, on the step itself; with d = 3, r = s/d
		// is inexact, so x*r lands on either side of the tie.
		{"tie 0.5", fill(2097152), 0x1p-22, 1},
		{"tie 126.5", fill(268435456), 0x1.fap-22, 1},
		{"tie 127.5 rail", fill(268435456), 0x1.fep-22, 1},
		{"tie -128.5 rail", fill(-536870912), 0x1.01p-22, 1},
		{"tie -127.5", fill(-268435456), 0x1.fep-22, 1},
		{"ties over an inexact ratio", []int32{3, 9, 15, 21, -3, -9, -15, -21, 381, 387, -381, -387, 759, 765, -765, -771, 3}, 0.5, 3},
		{"ties over a tenth", []int32{1, 3, 5, 7, -1, -3, -5, -7, 253, 255, -255, -257, 1, 3, 5, 7, 9}, 0.05, 0.1},
		// Ties where x*r rounds past the step, so that multiplying alone
		// would give 127 for 126 and -127 for -128 (found by searching
		// x*s = (k+1/2)*d over float32 scales).
		{"126.5 that x*r misses", []int32{7, 14, 28, 56, 112, 224, 448, 896, 7}, 126.5, 7},
		{"126.5 over 0.3 that x*r misses", fill(115), bits(0x3ea8f5c3), bits(0x3e99999a)},
		{"-127.5 that x*r misses", []int32{105, 105, 105, 105, 105, 105, 105, 105, 105}, -8.5, 7},
		{"-127.5 over 11 that x*r misses", []int32{187, 374, 748, 935, 1496, 1870, 2992, 3740, 187}, -7.5, 11},
		// The same ties with s one float32 ulp either side.
		{"tie 0.5 s+ulp", fill(2097152), bits(0x34800001), 1},
		{"tie 0.5 s-ulp", fill(2097152), bits(0x347fffff), 1},
		{"ties over an inexact ratio s+ulp", []int32{3, 9, 15, 21, -3, -9, -15, -21, 381, 387, -381, -387, 759, 765, -765, -771, 3}, bits(0x3f000001), 3},
		{"ties over an inexact ratio s-ulp", []int32{3, 9, 15, 21, -3, -9, -15, -21, 381, 387, -381, -387, 759, 765, -765, -771, 3}, bits(0x3effffff), 3},
		// x*s one float64 ulp off a tie: 0.5±ulp, 2.5+ulp, 127.5-ulp and
		// -128.5-ulp (found by searching x*m = (2k+1)*2^j ± 1 for a 24-bit m).
		{"0.5+ulp", fill(308761441), 0x1.bd2142p-30, 1},
		{"0.5-ulp", fill(335544315), 0x1.99999ap-30, 1},
		{"2.5+ulp", fill(477153021), 0x1.680caap-28, 1},
		{"127.5-ulp", fill(575926559), 0x1.db6a42p-23, 1},
		{"-128.5-ulp", fill(-375355617), 0x1.6f9642p-22, 1},
		{"one tie among ordinary lanes", []int32{100, 200, 300, 2097152, -100, -200, -300, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 0x1p-22, 1},
		// The accumulator rails.
		{"MaxInt32", fill(math.MaxInt32), 1e-7, 1},
		{"MinInt32", fill(math.MinInt32), 1e-7, 1},
		{"MaxInt32 at 127.5", fill(math.MaxInt32), 0x1.fep-25, 0x1p-7},
		{"MinInt32 unit", fill(math.MinInt32), 1, 1},
		// Ratios that are not normal float64s: zero (s = 0), infinite
		// (d = 0) and NaN, and the smallest a float32 pair gives, 2^-277
		// (still normal: float32 scales cannot make a subnormal ratio).
		{"ratio zero", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 3, 4, 5}, 0, 1},
		{"ratio infinite", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 3, 4, 5}, 1, 0},
		{"ratio infinite from s", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 3, 4, 5}, float32(math.Inf(1)), 1},
		{"ratio NaN", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 3, 4, 5}, 0, 0},
		{"ratio 2^-277", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 3, 4, 5}, bits(1), math.MaxFloat32},
		{"subnormal scales", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 3, 4, 5}, bits(3), bits(2)},
		// Ratios that are normal float64s but not normal float32s, so the
		// passes' float32 r is NaN and every group divides: subnormal
		// (1e-40) and past MaxFloat32 (1e40) in float32.
		{"ratio subnormal in float32", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30), 5}, 1e-30, 1e10},
		{"ratio past MaxFloat32", []int32{0, 1, -1, 7, math.MaxInt32, math.MinInt32, 1 << 30, -(1 << 30), 5}, 1e30, 1e-10},
		// |x| >= 2^24, where float32(x) rounds, with the float32 product one
		// float32 ulp (2^-17) from a half-integer and (x*s)/d across it:
		// rounding the product alone gives the neighbouring int8 (found by
		// searching float32 scales near t/x).
		{"x>=2^24 z=-127.49999 for -127.5000025", fill(-16777217), bits(0x36190000), 0.3},
		{"x>=2^24 z=-127.50001 for -127.49999996", fill(-33554435), bits(0x34cbffff), 0.1},
		{"x>=2^24 z=126.49999 for 126.5000018", fill(16777217), bits(0x354a6666), 0.1},
		{"x>=2^24 z=-126.49999 for -126.5000018", fill(-16777217), bits(0x354a6666), 0.1},
		// The same x with the product an ulp off ±127.5 and ±128.5, both
		// signs in one row.
		{"x>=2^24 near ±127.5", []int32{16777217, -16777217, 16777217, -16777217, 16777219, -16777219, 16777217, -16777217, 16777217}, bits(0x36feffff), 1},
		{"x>=2^24 near ±128.5", []int32{16777217, -16777217, 16777217, -16777217, 16777219, -16777219, 16777217, -16777217, 16777217}, bits(0x37007fff), 1},
		{"x>=2^24 on ±128.5", []int32{16777217, -16777217, 16777217, -16777217, 16777219, -16777219, 16777217, -16777217, 16777217}, bits(0x37008000), 1},
		// Dyadic ratios, where float32 x*r is exact and most lanes tie.
		{"ratio 0.5 ties", []int32{1, 3, 5, 7, -1, -3, -5, -7, 253, 255, 257, -255, -257, 9, 11, 13, 15}, 0.5, 1},
		{"ratio 2^-20 ties", []int32{1 << 19, 3 << 19, 5 << 19, -(1 << 19), -(3 << 19), 253 << 19, 255 << 19, -(255 << 19), -(257 << 19), 2, 1 << 19, 3 << 19, 5 << 19, 7 << 19, 9 << 19, 11 << 19, 13 << 19}, 0x1p-20, 1},
	}
	return cases
}

// TestRequantizeExactnessCorpus holds DrainRow to Lookup(Requantize) on the
// requantize corpus, with the vector passes on and off.
func TestRequantizeExactnessCorpus(t *testing.T) {
	for _, c := range requantizeCorpus() {
		pre := Params{Scale: c.d}
		for _, fn := range []Nonlinearity{Identity, Sigmoid} {
			lut := NewLUT(fn, pre, OutputParams(fn, pre))
			eachPath(t, func(path string) {
				got := make([]int8, len(c.acc))
				lut.DrainRow(got, c.acc, c.s, pre)
				for j, a := range c.acc {
					if want := lut.Lookup(Requantize(a, c.s, pre)); got[j] != want {
						t.Errorf("%s %s %v lane %d: acc %d s=%v d=%v: got %d, want %d",
							c.name, path, fn, j, a, c.s, c.d, got[j], want)
					}
				}
			})
		}
	}
}

// FuzzSatAddRows holds SatAddRow, on both paths, to SatAdd32 lane by lane
// and the XOR of the result — the parity word the accumulator guard keeps.
// Seeds overflow at MaxInt32 and MinInt32 in both directions, land exactly
// on the rails without overflowing, and leave a scalar tail.
func FuzzSatAddRows(f *testing.F) {
	pairs := func(vals ...int32) []byte {
		b := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		return b
	}
	const maxI, minI = math.MaxInt32, math.MinInt32
	f.Add(pairs(maxI, minI, maxI, -1, 1, minI, 0, 0, // dst
		1, -1, maxI, minI, maxI, 1, maxI, minI)) // src
	f.Add(pairs(maxI-5, minI+5, 1<<30, -(1 << 30), 7, -7, maxI, minI, 3,
		5, -5, 1<<30, -(1 << 30), -7, 7, 0, 0, 4))
	f.Add(pairs(minI, minI, minI, minI, minI, minI, minI, minI, maxI, maxI,
		minI, minI, minI, minI, minI, minI, minI, minI, maxI, maxI))
	f.Fuzz(func(t *testing.T, raw []byte) {
		v := int32s(raw)
		n := len(v) / 2
		dst0, src := v[:n], v[n:2*n]
		want := make([]int32, n)
		var wantParity uint32
		for j := range want {
			want[j] = SatAdd32(dst0[j], src[j])
			wantParity ^= uint32(want[j])
		}
		eachPath(t, func(path string) {
			dst := append([]int32(nil), dst0...)
			parity := SatAddRow(dst, src)
			for j := range want {
				if dst[j] != want[j] {
					t.Fatalf("%s lane %d: %d + %d = %d, want %d", path, j, dst0[j], src[j], dst[j], want[j])
				}
			}
			if parity != wantParity {
				t.Fatalf("%s parity %#x, want %#x", path, parity, wantParity)
			}
		})
	})
}

// FuzzQuantizeInto holds QuantizeInto, on every path, to Quantize element by
// element over every float32 bit pattern: ±Inf, NaN, subnormals, ties, and
// inputs where the passes' float32 multiply is an ulp from a tie.
func FuzzQuantizeInto(f *testing.F) {
	floats := func(vals ...float32) []byte {
		b := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	sub := math.Float32frombits(1) // the smallest subnormal
	f.Add(floats(inf, -inf, nan, -nan, sub, -sub, 0, float32(math.Copysign(0, -1)), 1e38), float32(1))
	f.Add(floats(0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 126.5, 127.5, -127.5, -128.5, 3.5), float32(1))
	f.Add(floats(sub, 2*sub, 1e-45, 1e-40), float32(1e-44))
	f.Add(floats(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), float32(0.0078125))
	// The same specials on a scale whose float32 reciprocal the passes
	// multiply by, and ±127.5*scale, ±128.5*scale exactly: ties at the
	// rails, sixteen lanes and a tail.
	f.Add(floats(inf, -inf, nan, -nan, sub, -sub, 0, float32(math.Copysign(0, -1)),
		63.75, -63.75, 64.25, -64.25, 63.25, -63.25, 1e38, -1e38, 0.25), float32(0.5))
	f.Add(floats(inf, -inf, nan, 0, float32(math.Copysign(0, -1)), 3*sub, 1e-39, -1e-39,
		12.75, -12.75, 12.85, -12.85, 1, -1, 0.05, -0.05, 7), float32(0.1))
	// The float32 product one ulp from a half-integer and x/scale on it:
	// rounding the product alone gives 127 for 126.5's 126, and -127 for
	// -127.5's -128.
	f.Add(floats(885.5, -885.5, 885.5, -885.5, 885.5, -885.5, 885.5, -885.5, 885.5, -885.5, 885.5, -885.5, 885.5, -885.5, 885.5, -885.5, 885.5), float32(7))
	f.Add(floats(-5.1049805, 5.1049805, -5.1049805, 5.1049805, -5.1049805, 5.1049805, -5.1049805, 5.1049805,
		-5.1049805, 5.1049805, -5.1049805, 5.1049805, -5.1049805, 5.1049805, -5.1049805, 5.1049805, -5.1049805), math.Float32frombits(0x3d240000))
	// Scales whose reciprocal is a normal float64 but not a normal float32:
	// 1/MaxFloat32 is subnormal, 1/1e-39 is past MaxFloat32. Every group
	// divides.
	f.Add(floats(3e38, -3e38, 1, -1, 0, inf, -inf, nan, 1e-38, 2e38, 0.5, 7, -7, 1e30, -1e30, 3, 4), float32(math.MaxFloat32))
	f.Add(floats(1e-43, -1e-43, 1e-44, -1e-44, 0, inf, nan, 1, 1e-39, -1e-39, sub, -sub, 2e-43, 5e-43, -5e-43, 1e-42, 3), float32(1e-39))
	f.Fuzz(func(t *testing.T, raw []byte, scale float32) {
		src := make([]float32, min(len(raw)/4, 512))
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		p := Params{Scale: scale}
		eachPath(t, func(path string) {
			dst := make([]int8, len(src))
			QuantizeInto(dst, src, p)
			for i, x := range src {
				if want := p.Quantize(x); dst[i] != want {
					t.Fatalf("%s Quantize(%v) under %+v = %d, want %d", path, x, p, dst[i], want)
				}
			}
		})
	})
}

// FuzzDequantizeInto holds DequantizeInto, on both paths, to Dequantize
// element by element, bit for bit: every int8 against scales that are
// negative, subnormal, zero of either sign, infinite or NaN.
func FuzzDequantizeInto(f *testing.F) {
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(all, float32(1.0/127))
	f.Add(all, float32(-0.5))
	f.Add(all, math.Float32frombits(1))
	f.Add(all, float32(math.Copysign(0, -1)))
	f.Add(all, float32(math.Inf(1)))
	f.Add(all, float32(math.NaN()))
	f.Add([]byte{0x80, 0x7f, 0, 1, 0xff, 3, 5, 7, 9}, float32(3e38))
	f.Fuzz(func(t *testing.T, raw []byte, scale float32) {
		src := make([]int8, len(raw))
		for i, b := range raw {
			src[i] = int8(b)
		}
		p := Params{Scale: scale}
		eachPath(t, func(path string) {
			dst := make([]float32, len(src))
			DequantizeInto(dst, src, p)
			for i, q := range src {
				if got, want := math.Float32bits(dst[i]), math.Float32bits(p.Dequantize(q)); got != want {
					t.Fatalf("%s Dequantize(%d) under %+v = %#x, want %#x", path, q, p, got, want)
				}
			}
		})
	})
}
