package models

import (
	"math"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// TestTable1Census checks every published Table 1 characteristic: layer
// counts by kind, total layers, weights, batch, operational intensity, and
// nonlinearity set.
func TestTable1Census(t *testing.T) {
	cases := []struct {
		name                    string
		fc, conv, vector, total int
		weightsM                float64 // published, millions
		weightsTolFrac          float64
		batch                   int
		oi                      float64
		oiTolFrac               float64
		acts                    []fixed.Nonlinearity
	}{
		{"MLP0", 5, 0, 0, 5, 20, 0.01, 200, 200, 0.001, []fixed.Nonlinearity{fixed.ReLU}},
		{"MLP1", 4, 0, 0, 4, 5, 0.01, 168, 168, 0.001, []fixed.Nonlinearity{fixed.ReLU}},
		{"LSTM0", 24, 0, 34, 58, 52, 0.01, 64, 64, 0.01, []fixed.Nonlinearity{fixed.Sigmoid, fixed.Tanh}},
		{"LSTM1", 37, 0, 19, 56, 34, 0.03, 96, 96, 0.01, []fixed.Nonlinearity{fixed.Sigmoid, fixed.Tanh}},
		{"CNN0", 0, 16, 0, 16, 8, 0.03, 8, 2888, 0.001, []fixed.Nonlinearity{fixed.ReLU}},
		{"CNN1", 4, 72, 13, 89, 100, 0.03, 32, 1750, 0.08, []fixed.Nonlinearity{fixed.ReLU}},
	}
	for _, c := range cases {
		b, err := ByName(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := b.Model
		if err := m.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", c.name, err)
		}
		fc, conv, vector, _, total := m.LayerCounts()
		if fc != c.fc || conv != c.conv || vector != c.vector || total != c.total {
			t.Errorf("%s census = FC:%d Conv:%d Vec:%d total:%d, want FC:%d Conv:%d Vec:%d total:%d",
				c.name, fc, conv, vector, total, c.fc, c.conv, c.vector, c.total)
		}
		w := float64(m.Weights()) / 1e6
		if math.Abs(w-c.weightsM)/c.weightsM > c.weightsTolFrac {
			t.Errorf("%s weights = %.2fM, want %.0fM (+/-%.0f%%)",
				c.name, w, c.weightsM, c.weightsTolFrac*100)
		}
		if m.Batch != c.batch {
			t.Errorf("%s batch = %d, want %d", c.name, m.Batch, c.batch)
		}
		oi := m.OperationalIntensity()
		if math.Abs(oi-c.oi)/c.oi > c.oiTolFrac {
			t.Errorf("%s OI = %.1f, want %.0f (+/-%.1f%%)", c.name, oi, c.oi, c.oiTolFrac*100)
		}
		gotActs := m.Nonlinearities()
		if len(gotActs) != len(c.acts) {
			t.Errorf("%s nonlinearities = %v, want %v", c.name, gotActs, c.acts)
		}
	}
}

// TestChained verifies every model is a consistent dataflow graph: each
// layer's input size equals the previous layer's output size.
func TestChained(t *testing.T) {
	for _, b := range All() {
		m := b.Model
		prev := -1
		for i, l := range m.Layers {
			in := perExampleIn(l)
			if prev >= 0 && in != prev {
				t.Errorf("%s layer %d (%s) consumes %d elems, previous layer produced %d",
					m.Name, i, l.Name, in, prev)
			}
			prev = perExampleOut(l, prev)
		}
	}
}

func perExampleIn(l nn.Layer) int {
	return l.InputElems()
}

func perExampleOut(l nn.Layer, prevIn int) int {
	switch l.Kind {
	case nn.FC:
		return l.Out
	case nn.Conv:
		return l.Conv.OutH() * l.Conv.OutW() * l.Conv.Cout
	case nn.Vector:
		return l.Width
	case nn.Pool:
		return prevIn / (l.PoolWindow * l.PoolWindow)
	default:
		return 0
	}
}

// TestRecurrentConsistency: LSTM chains must return to their input width so
// the recurrence is well-typed.
func TestRecurrentConsistency(t *testing.T) {
	for _, name := range []string{"LSTM0", "LSTM1"} {
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m := b.Model
		first := m.Layers[0].InputElems()
		last := perExampleOut(m.Layers[len(m.Layers)-1], 0)
		if first != last {
			t.Errorf("%s: chain input %d != output %d", name, first, last)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("VGG"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDeployWeights(t *testing.T) {
	var ws []float64
	for _, b := range All() {
		ws = append(ws, b.DeployShare)
	}
	if len(ws) != 6 {
		t.Fatalf("%d deployment shares, want 6", len(ws))
	}
	sum := 0.0
	for _, w := range ws {
		sum += w
	}
	// Table 1: the six apps are 95% of TPU workload.
	if math.Abs(sum-95) > 0.5 {
		t.Errorf("deployment shares sum to %v, want 95", sum)
	}
	// Class-level mix: MLPs 61%, LSTMs 29%, CNNs 5%.
	if mlp := ws[0] + ws[1]; math.Abs(mlp-61) > 0.5 {
		t.Errorf("MLP share = %v, want 61", mlp)
	}
	if lstm := ws[2] + ws[3]; math.Abs(lstm-29) > 0.5 {
		t.Errorf("LSTM share = %v, want 29", lstm)
	}
	if cnn := ws[4] + ws[5]; math.Abs(cnn-5) > 0.5 {
		t.Errorf("CNN share = %v, want 5", cnn)
	}
}

// TestCNN1ShallowDepth: about half of CNN1's conv layers must be shallow
// (feature depth well under the 256-wide matrix unit) per Table 3's
// unused-MAC analysis.
func TestCNN1ShallowDepth(t *testing.T) {
	b, err := ByName("CNN1")
	if err != nil {
		t.Fatal(err)
	}
	shallow := 0
	convs := 0
	for _, l := range b.Model.Layers {
		if l.Kind != nn.Conv {
			continue
		}
		convs++
		if l.Conv.Cout < 128 {
			shallow++
		}
	}
	frac := float64(shallow) / float64(convs)
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("shallow conv fraction = %.2f, want about half", frac)
	}
}

// TestLSTM1Has600 checks LSTM1 contains the 600x600 matrices Section 7's
// matrix-unit-scaling argument depends on.
func TestLSTM1Has600(t *testing.T) {
	b, err := ByName("LSTM1")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range b.Model.Layers {
		if l.Kind == nn.FC && l.In == 600 && l.Out == 600 {
			found = true
			break
		}
	}
	if !found {
		t.Error("LSTM1 has no 600x600 gate matrix")
	}
}

func TestCNN0MostWeightsDeep(t *testing.T) {
	// CNN0 is compute-bound with ~full MAC utilization: all its conv layers
	// must have deep (>=128) feature maps.
	b, _ := ByName("CNN0")
	for _, l := range b.Model.Layers {
		if l.Kind == nn.Conv && l.Conv.Cout < 128 {
			t.Errorf("CNN0 layer %s has shallow depth %d", l.Name, l.Conv.Cout)
		}
	}
}

func TestTinyModelsRunFunctionally(t *testing.T) {
	for _, name := range Names() {
		tm, err := Tiny(name)
		if err != nil {
			t.Fatalf("Tiny(%s): %v", name, err)
		}
		if err := tm.Validate(); err != nil {
			t.Fatalf("Tiny(%s) invalid: %v", name, err)
		}
		p := nn.InitRandom(tm, 42, 0.25)
		var in *tensor.F32
		if tm.Class == nn.CNN {
			c := tm.Layers[0].Conv
			in = tensor.NewF32(tm.Batch, c.H, c.W, c.Cin)
		} else {
			in = tensor.NewF32(tm.Batch, tm.InputElems())
		}
		in.FillRandom(43, 1)
		out, err := nn.Forward(tm, p, in)
		if err != nil {
			t.Fatalf("Tiny(%s) forward: %v", name, err)
		}
		if len(out.Data) == 0 {
			t.Fatalf("Tiny(%s) produced empty output", name)
		}
		// Quantized path must also work end to end.
		qm, err := nn.QuantizeModel(tm, p, in)
		if err != nil {
			t.Fatalf("Tiny(%s) quantize: %v", name, err)
		}
		if _, err := qm.Forward(qm.QuantizeInput(in)); err != nil {
			t.Fatalf("Tiny(%s) quantized forward: %v", name, err)
		}
	}
}

func TestTinyUnknown(t *testing.T) {
	if _, err := Tiny("nope"); err == nil {
		t.Error("unknown tiny model accepted")
	}
}

func TestTinyPreservesClassAndOps(t *testing.T) {
	for _, name := range Names() {
		full, _ := ByName(name)
		tm, _ := Tiny(name)
		if tm.Class != full.Model.Class {
			t.Errorf("Tiny(%s) class = %v, want %v", name, tm.Class, full.Model.Class)
		}
	}
}

func TestAllOrder(t *testing.T) {
	all := All()
	for i, name := range Names() {
		if all[i].Model.Name != name {
			t.Errorf("All()[%d] = %s, want %s", i, all[i].Model.Name, name)
		}
	}
}
