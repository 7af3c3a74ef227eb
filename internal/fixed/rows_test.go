package fixed

import (
	"encoding/binary"
	"math"
	"testing"
)

// eachPath runs f with the row passes off, then on where the host has them,
// and leaves them on.
func eachPath(t testing.TB, f func(path string)) {
	t.Helper()
	defer useVector(true)
	for _, on := range []bool{false, true} {
		if useVector(on) != on {
			continue
		}
		path := "scalar"
		if on {
			path = "vector"
		}
		f(path)
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

// FuzzQuantizeInto holds QuantizeInto, on both paths, to Quantize element by
// element over every float32 bit pattern: ±Inf, NaN, subnormals, ties.
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
