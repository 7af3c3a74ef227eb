package nn

import (
	"math"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

func TestTrainLinearRegression(t *testing.T) {
	// A single identity FC layer must recover a linear map.
	m := &Model{Name: "lin", Class: MLP, Batch: 8, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 3, Out: 2, Act: fixed.Identity},
	}}
	p := InitRandom(m, 1, 0.1)
	trueW := &tensor.F32{Shape: tensor.Shape{3, 2}, Data: []float32{1, -0.5, 0.25, 2, -1, 0.75}}

	const n = 64
	x := tensor.NewF32(n, 3)
	x.FillRandom(2, 1)
	y, err := tensor.MatMulF32(x, trueW)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := Train(m, p, x, y, TrainConfig{LearningRate: 0.1, Epochs: 400, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 1e-4 {
		t.Errorf("final loss = %v, linear problem should solve exactly", loss)
	}
	for i := range trueW.Data {
		if d := math.Abs(float64(p.ByLayer[0].Data[i] - trueW.Data[i])); d > 0.02 {
			t.Errorf("weight %d = %v, want %v", i, p.ByLayer[0].Data[i], trueW.Data[i])
		}
	}
}

func TestTrainXOR(t *testing.T) {
	// The classic nonlinear sanity check: a 2-layer tanh net learns XOR.
	m := &Model{Name: "xor", Class: MLP, Batch: 4, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 3, Out: 8, Act: fixed.Tanh}, // 3rd input is a bias column
		{Kind: FC, In: 8, Out: 1, Act: fixed.Identity},
	}}
	p := InitRandom(m, 7, 0.8)
	x := &tensor.F32{Shape: tensor.Shape{4, 3}, Data: []float32{
		0, 0, 1,
		0, 1, 1,
		1, 0, 1,
		1, 1, 1,
	}}
	y := &tensor.F32{Shape: tensor.Shape{4, 1}, Data: []float32{0, 1, 1, 0}}
	loss, err := Train(m, p, x, y, TrainConfig{LearningRate: 0.3, Epochs: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.01 {
		t.Fatalf("XOR loss = %v after training", loss)
	}
	out, err := Forward(m, p, x)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range y.Data {
		if math.Abs(float64(out.Data[i]-want)) > 0.2 {
			t.Errorf("XOR(%v) = %v, want %v", x.Data[i*3:i*3+2], out.Data[i], want)
		}
	}
}

func TestTrainLossDecreases(t *testing.T) {
	m := &Model{Name: "d", Class: MLP, Batch: 16, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 4, Out: 12, Act: fixed.ReLU},
		{Kind: FC, In: 12, Out: 2, Act: fixed.Identity},
	}}
	p := InitRandom(m, 3, 0.3)
	x := tensor.NewF32(32, 4)
	x.FillRandom(4, 1)
	y := tensor.NewF32(32, 2)
	y.FillRandom(5, 1)
	first, err := Train(m, p, x, y, TrainConfig{LearningRate: 0.05, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	last, err := Train(m, p, x, y, TrainConfig{LearningRate: 0.05, Epochs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Errorf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrainErrors(t *testing.T) {
	m := &Model{Name: "v", Class: LSTM, Batch: 2, TimeSteps: 1, Layers: []Layer{
		{Kind: Vector, Width: 4, VOp: VecActivation, Act: fixed.Tanh},
	}}
	p := InitRandom(m, 1, 0.1)
	x := tensor.NewF32(2, 4)
	if _, err := Train(m, p, x, x, TrainConfig{LearningRate: 0.1, Epochs: 1}); err == nil {
		t.Error("vector layer accepted")
	}
	fc := &Model{Name: "f", Class: MLP, Batch: 2, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 4, Out: 4, Act: fixed.Identity},
	}}
	pf := InitRandom(fc, 1, 0.1)
	if _, err := Train(fc, pf, x, x, TrainConfig{LearningRate: 0, Epochs: 1}); err == nil {
		t.Error("zero learning rate accepted")
	}
	if _, err := Train(fc, pf, x, x, TrainConfig{LearningRate: 0.1, Epochs: 0}); err == nil {
		t.Error("zero epochs accepted")
	}
	bad := tensor.NewF32(3, 4)
	if _, err := Train(fc, pf, x, bad, TrainConfig{LearningRate: 0.1, Epochs: 1}); err == nil {
		t.Error("mismatched target count accepted")
	}
}

// TestTrainThenQuantize is the paper's deployment flow in miniature: train
// in float32, quantize, and check the int8 model still solves the task.
func TestTrainThenQuantize(t *testing.T) {
	m := &Model{Name: "deploy", Class: MLP, Batch: 4, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 3, Out: 8, Act: fixed.Tanh},
		{Kind: FC, In: 8, Out: 1, Act: fixed.Identity},
	}}
	p := InitRandom(m, 9, 0.8)
	x := &tensor.F32{Shape: tensor.Shape{4, 3}, Data: []float32{
		0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1,
	}}
	y := &tensor.F32{Shape: tensor.Shape{4, 1}, Data: []float32{0, 1, 1, 0}}
	if _, err := Train(m, p, x, y, TrainConfig{LearningRate: 0.3, Epochs: 4000}); err != nil {
		t.Fatal(err)
	}
	qm, err := QuantizeModel(m, p, x)
	if err != nil {
		t.Fatal(err)
	}
	qout, err := qm.Forward(qm.QuantizeInput(x))
	if err != nil {
		t.Fatal(err)
	}
	out := qm.DequantizeOutput(qout)
	for i, want := range y.Data {
		if math.Abs(float64(out.Data[i]-want)) > 0.3 {
			t.Errorf("quantized XOR output %d = %v, want %v", i, out.Data[i], want)
		}
	}
}

// actValues are pre-activations at the edges of every nonlinearity: ±0,
// subnormals, the float32 extremes, ±Inf, a quiet and a signaling NaN, and
// values where sigmoid and tanh saturate or round.
var actValues = []float32{
	0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, 0.5, -0.5, 1, -1, 3.75, -3.75,
	9.5, -9.5, 20, -20, 88.8, -88.8, 1e4, -1e4, math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.Float32frombits(0x7f800001),
}

// TestActDerivativeFromForwardValue: the derivative taken from the forward
// pass's float64 value equals the one that evaluates the nonlinearity again
// at the pre-activation, bit for bit.
func TestActDerivativeFromForwardValue(t *testing.T) {
	again := func(a fixed.Nonlinearity, v float32) float32 {
		switch a {
		case fixed.ReLU:
			if v > 0 {
				return 1
			}
			return 0
		case fixed.Sigmoid:
			s := 1 / (1 + math.Exp(-float64(v)))
			return float32(s * (1 - s))
		case fixed.Tanh:
			th := math.Tanh(float64(v))
			return float32(1 - th*th)
		default:
			return 1
		}
	}
	for _, act := range []fixed.Nonlinearity{fixed.Identity, fixed.ReLU, fixed.Sigmoid, fixed.Tanh} {
		for _, v := range actValues {
			got, want := actDerivative(act, v, act.Apply(float64(v))), again(act, v)
			if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
				t.Errorf("%s'(%v) = %v, evaluated again %v", act, v, got, want)
			}
		}
	}
}
