package nn

import (
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

func TestOpString(t *testing.T) {
	cases := map[Op]string{FC: "FC", Conv: "Conv", Vector: "Vector", Pool: "Pool"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", op, got, want)
		}
	}
	if Op(9).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{MLP: "MLP", LSTM: "LSTM", CNN: "CNN"}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", c, got, want)
		}
	}
	if Class(9).String() == "" {
		t.Error("unknown class should render")
	}
}

func TestLayerWeights(t *testing.T) {
	fc := Layer{Kind: FC, In: 100, Out: 200}
	if fc.Weights() != 20000 {
		t.Errorf("FC weights = %d", fc.Weights())
	}
	conv := Layer{Kind: Conv, Conv: tensor.Conv2DShape{H: 19, W: 19, Cin: 8, K: 3, S: 1, Cout: 16}}
	if conv.Weights() != 3*3*8*16 {
		t.Errorf("conv weights = %d", conv.Weights())
	}
	vscale := Layer{Kind: Vector, Width: 64, VOp: VecScale}
	if vscale.Weights() != 64 {
		t.Errorf("VecScale weights = %d", vscale.Weights())
	}
	vact := Layer{Kind: Vector, Width: 64, VOp: VecActivation}
	if vact.Weights() != 0 {
		t.Errorf("VecActivation weights = %d", vact.Weights())
	}
	pool := Layer{Kind: Pool, PoolWindow: 2}
	if pool.Weights() != 0 {
		t.Errorf("pool weights = %d", pool.Weights())
	}
}

func TestLayerMACs(t *testing.T) {
	fc := Layer{Kind: FC, In: 100, Out: 200}
	if fc.MACsPerExample() != 20000 {
		t.Errorf("FC MACs = %d", fc.MACsPerExample())
	}
	// Conv reuses each weight at every output position: the root of the
	// CNNs' high operational intensity.
	conv := Layer{Kind: Conv, Conv: tensor.Conv2DShape{H: 19, W: 19, Cin: 8, K: 3, S: 1, Cout: 16}}
	if got, want := conv.MACsPerExample(), 19*19*conv.Weights(); got != want {
		t.Errorf("conv MACs = %d, want %d", got, want)
	}
	if (Layer{Kind: Vector, Width: 5}).MACsPerExample() != 0 {
		t.Error("vector layers perform no matrix MACs")
	}
}

func TestLayerElems(t *testing.T) {
	fc := Layer{Kind: FC, In: 100, Out: 200}
	if fc.InputElems() != 100 {
		t.Errorf("FC elems = %d", fc.InputElems())
	}
	conv := Layer{Kind: Conv, Conv: tensor.Conv2DShape{H: 4, W: 4, Cin: 2, K: 3, S: 1, Cout: 8}}
	if conv.InputElems() != 32 {
		t.Errorf("conv elems = %d", conv.InputElems())
	}
}

func TestLayerValidate(t *testing.T) {
	bad := []Layer{
		{Kind: FC, In: 0, Out: 5},
		{Kind: Conv},
		{Kind: Vector, Width: 0},
		{Kind: Pool, PoolWindow: 1},
		{Kind: Op(9)},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("bad layer %d accepted", i)
		}
	}
	good := Layer{Kind: FC, In: 3, Out: 4, Act: fixed.ReLU}
	if err := good.Validate(); err != nil {
		t.Errorf("good layer rejected: %v", err)
	}
}

func tinyMLP() *Model {
	return &Model{
		Name: "tiny", Class: MLP, Batch: 4, TimeSteps: 1,
		Layers: []Layer{
			{Name: "fc0", Kind: FC, In: 8, Out: 16, Act: fixed.ReLU},
			{Name: "fc1", Kind: FC, In: 16, Out: 8, Act: fixed.ReLU},
		},
	}
}

func TestModelValidate(t *testing.T) {
	if err := tinyMLP().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []*Model{
		{Name: "", Batch: 1, TimeSteps: 1, Layers: []Layer{{Kind: FC, In: 1, Out: 1}}},
		{Name: "x", Batch: 0, TimeSteps: 1, Layers: []Layer{{Kind: FC, In: 1, Out: 1}}},
		{Name: "x", Batch: 1, TimeSteps: 0, Layers: []Layer{{Kind: FC, In: 1, Out: 1}}},
		{Name: "x", Batch: 1, TimeSteps: 1},
		{Name: "x", Batch: 1, TimeSteps: 1, Layers: []Layer{{Kind: FC}}},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestModelAggregates(t *testing.T) {
	m := tinyMLP()
	if got := m.Weights(); got != 8*16+16*8 {
		t.Errorf("Weights = %d", got)
	}
	if got := m.MACsPerExample(); got != 8*16+16*8 {
		t.Errorf("MACsPerExample = %d", got)
	}
	if got := m.MACsPerBatch(); got != int64(4*(8*16+16*8)) {
		t.Errorf("MACsPerBatch = %d", got)
	}
	// For a pure-FC model OI == batch size, the key Table 1 identity.
	if oi := m.OperationalIntensity(); oi != 4 {
		t.Errorf("OI = %v, want batch size 4", oi)
	}
}

func TestRecurrentOIScalesWithTimeSteps(t *testing.T) {
	m := tinyMLP()
	m.Layers[1].Out = 8
	m.Layers[0].In = 8
	m.Layers[0].Out = 8
	m.Layers[1].In = 8
	m.TimeSteps = 3
	// Weights reused across time steps: OI = batch * steps for square FC.
	if oi := m.OperationalIntensity(); oi != 12 {
		t.Errorf("OI = %v, want 12", oi)
	}
}

func TestLayerCounts(t *testing.T) {
	m := &Model{Name: "mix", Batch: 1, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 1, Out: 1},
		{Kind: Conv, Conv: tensor.Conv2DShape{H: 2, W: 2, Cin: 1, K: 1, S: 1, Cout: 1}},
		{Kind: Vector, Width: 4},
		{Kind: Vector, Width: 4},
		{Kind: Pool, PoolWindow: 2},
	}}
	fc, conv, vec, pool, total := m.LayerCounts()
	if fc != 1 || conv != 1 || vec != 2 || pool != 1 || total != 5 {
		t.Errorf("counts = %d %d %d %d %d", fc, conv, vec, pool, total)
	}
}

func TestNonlinearities(t *testing.T) {
	m := &Model{Name: "x", Batch: 1, TimeSteps: 1, Layers: []Layer{
		{Kind: FC, In: 1, Out: 1, Act: fixed.Sigmoid},
		{Kind: FC, In: 1, Out: 1, Act: fixed.Tanh},
		{Kind: FC, In: 1, Out: 1, Act: fixed.Sigmoid},
		{Kind: FC, In: 1, Out: 1, Act: fixed.Identity},
	}}
	nl := m.Nonlinearities()
	if len(nl) != 2 || nl[0] != fixed.Sigmoid || nl[1] != fixed.Tanh {
		t.Errorf("Nonlinearities = %v", nl)
	}
}

func TestInputElems(t *testing.T) {
	if got := tinyMLP().InputElems(); got != 8 {
		t.Errorf("InputElems = %d", got)
	}
}
