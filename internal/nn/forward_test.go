package nn

import (
	"math"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

func TestForwardFCKnown(t *testing.T) {
	// One FC layer with identity weights and ReLU: negative inputs clamp.
	m := &Model{Name: "id", Class: MLP, Batch: 1, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 2, Out: 2, Act: fixed.ReLU},
	}}
	p := &Params{ByLayer: []*tensor.F32{{Shape: tensor.Shape{2, 2}, Data: []float32{1, 0, 0, 1}}}}
	in := &tensor.F32{Shape: tensor.Shape{1, 2}, Data: []float32{-3, 4}}
	out, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 0 || out.Data[1] != 4 {
		t.Errorf("out = %v, want [0 4]", out.Data)
	}
}

// TestApplyActMatchesApply holds applyAct, element by element and bit for
// bit, to float32(fn.Apply(float64(v))) for every nonlinearity on the values
// where a shortcut could part from it: zeros of both signs, infinities,
// subnormals, the float32 extremes, and quiet and signalling NaNs of both
// signs, which the float64 round trip returns quiet.
func TestApplyActMatchesApply(t *testing.T) {
	bits := []uint32{
		0, 1 << 31, 0x7f800000, 0xff800000, 1, 0x80000001, 0x007fffff, 0x807fffff,
		0x7f7fffff, 0xff7fffff, 0x3f800000, 0xbf800000, 0x00800000, 0x80800000,
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fa5a5a5, 0xffbfffff, 0x7fffffff,
	}
	for fn := fixed.Identity; fn <= fixed.Tanh; fn++ {
		x := tensor.NewF32(len(bits))
		for i, b := range bits {
			x.Data[i] = math.Float32frombits(b)
		}
		applyAct(Layer{Act: fn}, x)
		for i, b := range bits {
			want := math.Float32bits(float32(fn.Apply(float64(math.Float32frombits(b)))))
			if fn == fixed.Identity {
				want = b
			}
			if got := math.Float32bits(x.Data[i]); got != want {
				t.Errorf("%v(%#08x) = %#08x, want %#08x", fn, b, got, want)
			}
		}
	}
}

func TestForwardChainsShapes(t *testing.T) {
	m := tinyMLP()
	p := InitRandom(m, 1, 0.3)
	in := tensor.NewF32(4, 8)
	in.FillRandom(2, 1)
	out, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{4, 8}) {
		t.Errorf("output shape = %v", out.Shape)
	}
}

func TestForwardParamMismatch(t *testing.T) {
	m := tinyMLP()
	p := &Params{ByLayer: make([]*tensor.F32, 1)}
	if _, err := Forward(m, p, tensor.NewF32(4, 8)); err == nil {
		t.Error("mismatched params accepted")
	}
}

func TestForwardVectorOps(t *testing.T) {
	m := &Model{Name: "v", Class: LSTM, Batch: 1, TimeSteps: 1, Layers: []Layer{
		{Kind: Vector, Width: 3, VOp: VecScale},
		{Kind: Vector, Width: 3, VOp: VecBias},
		{Kind: Vector, Width: 3, VOp: VecActivation, Act: fixed.ReLU},
	}}
	p := &Params{ByLayer: []*tensor.F32{
		{Shape: tensor.Shape{3}, Data: []float32{2, 2, 2}},
		{Shape: tensor.Shape{3}, Data: []float32{1, 1, -100}},
		nil,
	}}
	in := &tensor.F32{Shape: tensor.Shape{1, 3}, Data: []float32{1, 2, 3}}
	out, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	// scale by 2 -> [2 4 6]; bias -> [3 5 -94]; relu -> [3 5 0]
	want := []float32{3, 5, 0}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestForwardRecurrent(t *testing.T) {
	// A square layer run for 3 time steps must equal three applications.
	m := &Model{Name: "r", Class: LSTM, Batch: 1, TimeSteps: 3, Layers: []Layer{
		{Kind: FC, In: 2, Out: 2, Act: fixed.Identity},
	}}
	w := &tensor.F32{Shape: tensor.Shape{2, 2}, Data: []float32{0, 1, 1, 0}} // swap
	p := &Params{ByLayer: []*tensor.F32{w}}
	in := &tensor.F32{Shape: tensor.Shape{1, 2}, Data: []float32{1, 2}}
	out, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	// Swapping three times swaps once net.
	if out.Data[0] != 2 || out.Data[1] != 1 {
		t.Errorf("out = %v, want [2 1]", out.Data)
	}
}

func TestForwardConvPoolFC(t *testing.T) {
	// conv -> pool -> FC exercises the rank-4 to rank-2 flatten (the CNN1
	// conv->FC transition).
	cs := tensor.Conv2DShape{H: 4, W: 4, Cin: 2, K: 3, S: 1, Cout: 3}
	m := &Model{Name: "cnn", Class: CNN, Batch: 2, TimeSteps: 1, Layers: []Layer{
		{Kind: Conv, Conv: cs, Act: fixed.ReLU},
		{Kind: Pool, PoolWindow: 2},
		{Kind: FC, In: 2 * 2 * 3, Out: 5, Act: fixed.ReLU},
	}}
	p := InitRandom(m, 3, 0.3)
	in := tensor.NewF32(2, 4, 4, 2)
	in.FillRandom(4, 1)
	out, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{2, 5}) {
		t.Errorf("output shape = %v", out.Shape)
	}
}

func TestForwardFlattenMismatch(t *testing.T) {
	m := &Model{Name: "bad", Class: MLP, Batch: 1, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 7, Out: 2},
	}}
	p := InitRandom(m, 1, 0.1)
	if _, err := Forward(m, p, tensor.NewF32(1, 8)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestInitRandomDeterministic(t *testing.T) {
	m := tinyMLP()
	a := InitRandom(m, 5, 0.5)
	b := InitRandom(m, 5, 0.5)
	for i := range a.ByLayer {
		if a.ByLayer[i] == nil {
			continue
		}
		for j := range a.ByLayer[i].Data {
			if a.ByLayer[i].Data[j] != b.ByLayer[i].Data[j] {
				t.Fatal("InitRandom not deterministic")
			}
		}
	}
}

func TestQuantizedForwardMatchesFloat(t *testing.T) {
	m := &Model{Name: "q", Class: MLP, Batch: 8, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 16, Out: 32, Act: fixed.ReLU},
		{Kind: FC, In: 32, Out: 16, Act: fixed.ReLU},
		{Kind: FC, In: 16, Out: 4, Act: fixed.Identity},
	}}
	p := InitRandom(m, 9, 0.2)
	in := tensor.NewF32(8, 16)
	in.FillRandom(10, 1)

	want, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qm.Forward(qm.QuantizeInput(in))
	if err != nil {
		t.Fatal(err)
	}
	outF := qm.DequantizeOutput(got)

	// Quantization error compounds across layers; demand agreement within a
	// few percent of the output dynamic range.
	var rangeMax float64
	for _, v := range want.Data {
		if a := math.Abs(float64(v)); a > rangeMax {
			rangeMax = a
		}
	}
	tol := 0.06 * rangeMax
	for i := range want.Data {
		if d := math.Abs(float64(outF.Data[i] - want.Data[i])); d > tol {
			t.Fatalf("quantized output diverges at %d: %v vs %v (tol %v)",
				i, outF.Data[i], want.Data[i], tol)
		}
	}
}

func TestQuantizedForwardLSTMStyle(t *testing.T) {
	m := &Model{Name: "qlstm", Class: LSTM, Batch: 4, TimeSteps: 2, Layers: []Layer{
		{Kind: FC, In: 8, Out: 8, Act: fixed.Sigmoid},
		{Kind: Vector, Width: 8, VOp: VecScale, Act: fixed.Tanh},
	}}
	p := InitRandom(m, 20, 0.4)
	in := tensor.NewF32(4, 8)
	in.FillRandom(21, 1)
	want, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qm.Forward(qm.QuantizeInput(in))
	if err != nil {
		t.Fatal(err)
	}
	outF := qm.DequantizeOutput(got)
	for i := range want.Data {
		if d := math.Abs(float64(outF.Data[i] - want.Data[i])); d > 0.1 {
			t.Fatalf("LSTM-style quantized output diverges at %d: %v vs %v",
				i, outF.Data[i], want.Data[i])
		}
	}
}

func TestQuantizedConvPool(t *testing.T) {
	cs := tensor.Conv2DShape{H: 4, W: 4, Cin: 2, K: 3, S: 1, Cout: 3}
	m := &Model{Name: "qcnn", Class: CNN, Batch: 2, TimeSteps: 1, Layers: []Layer{
		{Kind: Conv, Conv: cs, Act: fixed.ReLU},
		{Kind: Pool, PoolWindow: 2},
	}}
	p := InitRandom(m, 30, 0.3)
	in := tensor.NewF32(2, 4, 4, 2)
	in.FillRandom(31, 1)
	want, err := Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qm.Forward(qm.QuantizeInput(in))
	if err != nil {
		t.Fatal(err)
	}
	outF := qm.DequantizeOutput(got)
	if !outF.Shape.Equal(want.Shape) {
		t.Fatalf("shape %v vs %v", outF.Shape, want.Shape)
	}
	for i := range want.Data {
		if d := math.Abs(float64(outF.Data[i] - want.Data[i])); d > 0.15 {
			t.Fatalf("quantized conv diverges at %d: %v vs %v", i, outF.Data[i], want.Data[i])
		}
	}
}

func TestQuantizeInputRoundTrip(t *testing.T) {
	m := tinyMLP()
	p := InitRandom(m, 2, 0.2)
	in := tensor.NewF32(4, 8)
	in.FillRandom(3, 1)
	qm, err := QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	q := qm.QuantizeInput(in)
	for i, v := range in.Data {
		back := qm.Edge[0].Dequantize(q.Data[i])
		if math.Abs(float64(back-v)) > float64(qm.Edge[0].Scale) {
			t.Fatalf("input quantization error too large at %d", i)
		}
	}
}
