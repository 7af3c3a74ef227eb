package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuantizeDequantizeRoundTrip(t *testing.T) {
	p := ChooseParams(10)
	for _, x := range []float32{-10, -5.5, -0.01, 0, 0.01, 3.3, 9.99, 10} {
		q := p.Quantize(x)
		back := p.Dequantize(q)
		if math.Abs(float64(back-x)) > float64(p.Scale)/2+1e-6 {
			t.Errorf("round trip %v -> %d -> %v exceeds half-step error", x, q, back)
		}
	}
}

func TestQuantizeSaturates(t *testing.T) {
	p := ChooseParams(1)
	if got := p.Quantize(100); got != 127 {
		t.Errorf("Quantize(100) = %d, want saturation at 127", got)
	}
	if got := p.Quantize(-100); got != -128 {
		t.Errorf("Quantize(-100) = %d, want saturation at -128", got)
	}
}

func TestChooseParamsZeroRange(t *testing.T) {
	p := ChooseParams(0)
	if !(p.Scale > 0) {
		t.Fatalf("zero-range scale %v is not positive", p.Scale)
	}
	if got := p.Quantize(0); got != 0 {
		t.Errorf("Quantize(0) = %d, want 0", got)
	}
}

func TestChooseParamsFor(t *testing.T) {
	p := ChooseParamsFor([]float32{-3, 1, 2.5})
	if p.Quantize(3) != 127 {
		t.Errorf("absMax=3 should map 3 to 127, got %d", p.Quantize(3))
	}
	if p.Quantize(-3) != -127 {
		t.Errorf("symmetric quantization should map -3 to -127, got %d", p.Quantize(-3))
	}
}

func TestSatAdd32(t *testing.T) {
	if got := SatAdd32(math.MaxInt32, 1); got != math.MaxInt32 {
		t.Errorf("positive overflow should saturate, got %d", got)
	}
	if got := SatAdd32(math.MinInt32, -1); got != math.MinInt32 {
		t.Errorf("negative overflow should saturate, got %d", got)
	}
	if got := SatAdd32(40, 2); got != 42 {
		t.Errorf("SatAdd32(40,2) = %d, want 42", got)
	}
}

func TestSatAdd32Property(t *testing.T) {
	// Saturating addition must agree with wide addition whenever the wide
	// result fits, and must pin at a rail otherwise.
	f := func(a, b int32) bool {
		wide := int64(a) + int64(b)
		got := int64(SatAdd32(a, b))
		if wide >= math.MinInt32 && wide <= math.MaxInt32 {
			return got == wide
		}
		return got == math.MaxInt32 || got == math.MinInt32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequantize(t *testing.T) {
	// acc=100 at product scale 0.02 represents real 2.0; requantized into a
	// domain with scale 0.1 it should become q=20.
	got := Requantize(100, 0.02, Params{Scale: 0.1})
	if got != 20 {
		t.Errorf("Requantize = %d, want 20", got)
	}
}

func TestRequantizeSaturates(t *testing.T) {
	got := Requantize(math.MaxInt32, 1.0, Params{Scale: 1.0})
	if got != 127 {
		t.Errorf("Requantize should saturate to 127, got %d", got)
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	// For any finite value inside the representable range, dequantize∘quantize
	// is within half a quantization step.
	f := func(raw int16) bool {
		p := ChooseParams(50)
		x := float32(raw) / math.MaxInt16 * 50
		back := p.Dequantize(p.Quantize(x))
		return math.Abs(float64(back-x)) <= float64(p.Scale)/2+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// absMaxOracle is AbsMax as a float compare per element, the loop the
// bit-pattern pass replaced.
func absMaxOracle(data []float32) float32 {
	var m float32
	for _, v := range data {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

// TestAbsMaxMatchesOracle: AbsMax returns the float compare's bits, on
// every path, on every prefix of slices long enough for the vector pass's
// blocks of 32, its groups of eight and the scalar tail, holding NaNs of
// either sign and payload, ±Inf, ±0, subnormals and the float32 extremes at
// random places, and on random bit patterns.
func TestAbsMaxMatchesOracle(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := math.Float32frombits(0xffc00001)
	inf := float32(math.Inf(1))
	special := []float32{
		0, float32(math.Copysign(0, -1)), nan, negNaN, 1e-45, -1e-45, 1.5, -2.5,
		math.MaxFloat32, -math.MaxFloat32, -inf, inf, math.SmallestNonzeroFloat32, 3,
	}
	r := rand.New(rand.NewSource(1))
	eachPath(t, func(path string) {
		for trial := 0; trial < 100; trial++ {
			data := make([]float32, trial)
			for i := range data {
				if r.Intn(3) == 0 {
					data[i] = special[r.Intn(len(special))]
				} else {
					data[i] = math.Float32frombits(r.Uint32())
				}
			}
			for n := 0; n <= len(data); n++ {
				got, want := AbsMax(data[:n]), absMaxOracle(data[:n])
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s: AbsMax(%v) = %v, oracle %v", path, data[:n], got, want)
				}
			}
		}
		if got := AbsMax([]float32{nan, negNaN, nan, nan, nan, nan, nan, nan, nan}); math.Float32bits(got) != 0 {
			t.Errorf("%s: AbsMax of NaNs = %v, want +0", path, got)
		}
	})
}

// BenchmarkAbsMax is one calibration record of the wide MLP: the range of
// 64 x 1024 pre-activations.
func BenchmarkAbsMax(b *testing.B) {
	data := make([]float32, 64*1024)
	r := rand.New(rand.NewSource(1))
	for i := range data {
		data[i] = r.Float32()*2 - 1
	}
	benchPaths(b, func(b *testing.B) {
		for b.Loop() {
			AbsMax(data)
		}
	})
}
