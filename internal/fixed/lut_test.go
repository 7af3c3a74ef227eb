package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNonlinearityString(t *testing.T) {
	cases := map[Nonlinearity]string{
		Identity: "identity", ReLU: "relu", Sigmoid: "sigmoid", Tanh: "tanh",
		Nonlinearity(99): "unknown",
	}
	for n, want := range cases {
		if got := n.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", n, got, want)
		}
	}
}

func TestNonlinearityApply(t *testing.T) {
	if got := ReLU.Apply(-3); got != 0 {
		t.Errorf("ReLU(-3) = %v, want 0", got)
	}
	if got := ReLU.Apply(3); got != 3 {
		t.Errorf("ReLU(3) = %v, want 3", got)
	}
	if got := Sigmoid.Apply(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v, want 0.5", got)
	}
	if got := Tanh.Apply(0); got != 0 {
		t.Errorf("Tanh(0) = %v, want 0", got)
	}
	if got := Identity.Apply(1.25); got != 1.25 {
		t.Errorf("Identity(1.25) = %v, want 1.25", got)
	}
}

func TestLUTMatchesReference(t *testing.T) {
	in := ChooseParams(8) // pre-activations in [-8, 8]
	for _, fn := range []Nonlinearity{Identity, ReLU, Sigmoid, Tanh} {
		out := OutputParams(fn, in)
		lut := NewLUT(fn, in, out)
		var worst float64
		for q := -128; q <= 127; q++ {
			x := float64(in.Dequantize(int8(q)))
			want := fn.Apply(x)
			got := float64(out.Dequantize(lut.Lookup(int8(q))))
			if e := math.Abs(got - want); e > worst {
				worst = e
			}
		}
		// One output quantization step of error is the best a 256-entry
		// table can guarantee.
		if worst > float64(out.Scale)*1.01 {
			t.Errorf("%v: worst LUT error %v exceeds one output step %v", fn, worst, out.Scale)
		}
	}
}

func TestLUTSigmoidRange(t *testing.T) {
	in := ChooseParams(8)
	out := OutputParams(Sigmoid, in)
	lut := NewLUT(Sigmoid, in, out)
	for q := -128; q <= 127; q++ {
		y := out.Dequantize(lut.Lookup(int8(q)))
		if y < 0 || y > 1 {
			t.Fatalf("sigmoid output %v out of (0,1) for q=%d", y, q)
		}
	}
}

func TestLUTReLUIsMonotone(t *testing.T) {
	in := ChooseParams(8)
	lut := NewLUT(ReLU, in, in)
	prev := lut.Lookup(-128)
	for q := -127; q <= 127; q++ {
		cur := lut.Lookup(int8(q))
		if cur < prev {
			t.Fatalf("ReLU LUT not monotone at q=%d: %d < %d", q, cur, prev)
		}
		prev = cur
	}
}

func TestLUTMonotoneProperty(t *testing.T) {
	// All four nonlinearities are nondecreasing, so their tables must be too.
	in := ChooseParams(6)
	for _, fn := range []Nonlinearity{Identity, ReLU, Sigmoid, Tanh} {
		lut := NewLUT(fn, in, OutputParams(fn, in))
		f := func(a, b int8) bool {
			if a > b {
				a, b = b, a
			}
			return lut.Lookup(a) <= lut.Lookup(b)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%v: %v", fn, err)
		}
	}
}

func TestLookupSlice(t *testing.T) {
	in := ChooseParams(4)
	lut := NewLUT(ReLU, in, in)
	src := []int8{-100, -1, 0, 1, 100}
	dst := make([]int8, len(src))
	lut.LookupSlice(dst, src)
	for i, v := range src {
		if dst[i] != lut.Lookup(v) {
			t.Errorf("LookupSlice[%d] = %d, want %d", i, dst[i], lut.Lookup(v))
		}
	}
	// Negative inputs through ReLU must land at the quantized zero.
	if dst[0] != lut.Lookup(-100) || in.Dequantize(dst[0]) != 0 {
		t.Errorf("ReLU of negative should dequantize to 0, got %v", in.Dequantize(dst[0]))
	}
}

func TestLookupSliceAliasing(t *testing.T) {
	in := ChooseParams(4)
	lut := NewLUT(ReLU, in, in)
	buf := []int8{-50, 10, -3, 70}
	want := make([]int8, len(buf))
	lut.LookupSlice(want, buf)
	lut.LookupSlice(buf, buf) // in place
	for i := range buf {
		if buf[i] != want[i] {
			t.Errorf("aliased LookupSlice[%d] = %d, want %d", i, buf[i], want[i])
		}
	}
}

func TestOutputParams(t *testing.T) {
	in := ChooseParams(8)
	if got := OutputParams(ReLU, in); got != in {
		t.Errorf("ReLU should preserve input domain")
	}
	s := OutputParams(Sigmoid, in)
	// Sigmoid's domain must represent values near 0 and near 1.
	if s.Dequantize(-128) > 0.01 || s.Dequantize(127) < 0.99 {
		t.Errorf("sigmoid output domain does not span (0,1): [%v, %v]",
			s.Dequantize(-128), s.Dequantize(127))
	}
}

// OutputParams returns natural symmetric output quantization domains for
// each nonlinearity: sigmoid outputs lie in (0,1), tanh in (-1,1); ReLU and
// identity preserve the input domain scaled by the requantization.
func OutputParams(fn Nonlinearity, in Params) Params {
	switch fn {
	case Sigmoid, Tanh:
		return Params{Scale: 1.0 / 127.0}
	default:
		return in
	}
}

// LookupSlice applies the table elementwise, dst and src may alias.
func (l *LUT) LookupSlice(dst, src []int8) {
	for i, v := range src {
		dst[i] = l.Table[int(v)+128]
	}
}
