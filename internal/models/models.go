// Package models defines the six production NN benchmarks of Table 1 (two
// each of MLP, LSTM, CNN — 95% of the TPU's datacenter workload) as synthetic
// layer graphs. The paper does not publish internal layer dimensions, so each
// model's dimensions are chosen to satisfy every published characteristic:
// weight count, layer census (FC/Conv/Vector/Pool), nonlinearity, batch size,
// and operational intensity (TPU ops per weight byte). See DESIGN.md for the
// construction table.
//
// All models are properly chained graphs (layer i's output feeds layer i+1),
// so scaled-down variants can run real inference; the full-size models feed
// the timing simulator.
package models

import (
	"fmt"
	"sync"

	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// Benchmark bundles a model with its published workload facts.
type Benchmark struct {
	Model *nn.Model
	// DeployShare is the fraction (percent) of deployed TPU load this app
	// represents in July 2016. Table 1 publishes the per-class mix (MLPs
	// 61%, LSTMs 29%, CNNs 5%); the per-app split is recovered from the
	// paper's weighted means (Table 6: TPU WM 29.2, GPU WM 1.9).
	DeployShare float64
	// HostOverheadFrac is Table 5: time the host CPU spends interacting
	// with the TPU as a fraction of TPU execution time.
	HostOverheadFrac float64
	// PaperTOPS is Table 3 row 9: measured TeraOps/s on the TPU.
	PaperTOPS float64
}

// Names returns the six benchmark names in Table 1 order.
func Names() []string {
	return []string{"MLP0", "MLP1", "LSTM0", "LSTM1", "CNN0", "CNN1"}
}

// All returns the six benchmarks in Table 1 order.
func All() []Benchmark {
	out := make([]Benchmark, 0, 6)
	for _, n := range Names() {
		b, err := ByName(n)
		if err != nil {
			panic(err) // unreachable: Names() only lists known models
		}
		out = append(out, b)
	}
	return out
}

// benchCache holds one immutable Benchmark per name. The layer graphs are
// pure shape data that every caller treats as read-only (batch overrides go
// through compiler.Options.BatchOverride, never by editing the model), so
// building each graph once keeps the per-call construction — tens of layer
// appends and format calls for the CNNs — out of recompile-heavy loops.
var benchCache sync.Map // name -> Benchmark

// ByName returns one benchmark by its Table 1 name. The result is cached:
// callers share one Benchmark per name and must treat the Model as
// immutable.
func ByName(name string) (Benchmark, error) {
	if b, ok := benchCache.Load(name); ok {
		return b.(Benchmark), nil
	}
	b, err := buildBenchmark(name)
	if err != nil {
		return Benchmark{}, err
	}
	got, _ := benchCache.LoadOrStore(name, b)
	return got.(Benchmark), nil
}

// buildBenchmark constructs one benchmark's layer graph and workload facts.
func buildBenchmark(name string) (Benchmark, error) {
	switch name {
	case "MLP0":
		return Benchmark{Model: mlp0(), DeployShare: 57.9, HostOverheadFrac: 0.21, PaperTOPS: 12.3}, nil
	case "MLP1":
		return Benchmark{Model: mlp1(), DeployShare: 3.1, HostOverheadFrac: 0.76, PaperTOPS: 9.7}, nil
	case "LSTM0":
		return Benchmark{Model: lstm0(), DeployShare: 13.3, HostOverheadFrac: 0.11, PaperTOPS: 3.7}, nil
	case "LSTM1":
		return Benchmark{Model: lstm1(), DeployShare: 15.7, HostOverheadFrac: 0.20, PaperTOPS: 2.8}, nil
	case "CNN0":
		return Benchmark{Model: cnn0(), DeployShare: 2.5, HostOverheadFrac: 0.51, PaperTOPS: 86.0}, nil
	case "CNN1":
		return Benchmark{Model: cnn1(), DeployShare: 2.5, HostOverheadFrac: 0.14, PaperTOPS: 14.1}, nil
	default:
		return Benchmark{}, fmt.Errorf("models: unknown benchmark %q (want one of %v)", name, Names())
	}
}

// mlp0 is RankBrain-like: 5 FC layers of 2000x2000 = 20M weights, ReLU,
// batch 200 (Table 1 row 1).
func mlp0() *nn.Model {
	const dim = 2000
	m := &nn.Model{Name: "MLP0", Class: nn.MLP, Batch: 200, TimeSteps: 1}
	for i := 0; i < 5; i++ {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: dim, Out: dim, Act: fixed.ReLU,
		})
	}
	return m
}

// mlp1: 4 FC layers of 1118x1118 = 5.0M weights, ReLU, batch 168.
func mlp1() *nn.Model {
	const dim = 1118
	m := &nn.Model{Name: "MLP1", Class: nn.MLP, Batch: 168, TimeSteps: 1}
	for i := 0; i < 4; i++ {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: dim, Out: dim, Act: fixed.ReLU,
		})
	}
	return m
}

// lstm0 is a GNM-Translate-subset-like LSTM: 24 gate matmuls (1472x1472,
// 52M weights) and 34 vector layers = 58 layers, sigmoid+tanh, batch 64.
// Each gate depends on the previous group's output, producing the
// RAW-stall-heavy behaviour of Table 3.
func lstm0() *nn.Model {
	const dim = 1472
	m := &nn.Model{Name: "LSTM0", Class: nn.LSTM, Batch: 64, TimeSteps: 1}
	// 24 groups of gate + vector; the first 10 groups carry an extra vector
	// layer so the census is exactly 24 FC + 34 Vector.
	for g := 0; g < 24; g++ {
		act := fixed.Sigmoid
		if g%2 == 1 {
			act = fixed.Tanh
		}
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("gate%d", g), Kind: nn.FC, In: dim, Out: dim,
			Act: act,
		})
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("vec%d", g), Kind: nn.Vector, Width: dim,
			VOp: nn.VecScale, Act: fixed.Tanh,
		})
		if g < 10 {
			m.Layers = append(m.Layers, nn.Layer{
				Name: fmt.Sprintf("vecx%d", g), Kind: nn.Vector, Width: dim,
				VOp: nn.VecBias, Act: fixed.Sigmoid,
			})
		}
	}
	return m
}

// lstm1: 37 gate matmuls and 19 vector layers = 56 layers, 34M weights,
// batch 96. It deliberately contains 600x600 matrices — the exact shape
// Section 7 uses to explain why a 512x512 matrix unit would lose performance
// to two-dimensional tile fragmentation.
func lstm1() *nn.Model {
	m := &nn.Model{Name: "LSTM1", Class: nn.LSTM, Batch: 96, TimeSteps: 1}
	addGate := func(i, in, out int) {
		act := fixed.Sigmoid
		if i%2 == 1 {
			act = fixed.Tanh
		}
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("gate%d", i), Kind: nn.FC, In: in, Out: out,
			Act: act,
		})
	}
	addVec := func(i, width int) {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("vec%d", i), Kind: nn.Vector, Width: width,
			VOp: nn.VecScale, Act: fixed.Tanh,
		})
	}
	// 18 gates at 600x600 with 12 interleaved vector layers...
	li := 0
	for i := 0; i < 18; i++ {
		addGate(li, 600, 600)
		li++
		if i%3 != 2 { // 12 of 18 positions
			addVec(li, 600)
			li++
		}
	}
	// ...one widening transition, 17 gates at 1255x1255 with 7 vector
	// layers, and a narrowing transition back to 600.
	addGate(li, 600, 1255)
	li++
	for i := 0; i < 17; i++ {
		addGate(li, 1255, 1255)
		li++
		if i%3 == 2 { // 5 of 17
			addVec(li, 1255)
			li++
		}
	}
	addVec(li, 1255)
	li++
	addVec(li, 1255)
	li++
	addGate(li, 1255, 600)
	return m
}

// cnn0 is Inception-like: 16 conv layers over a 19x19 spatial grid with
// 256-deep channels (11 3x3 layers, 5 2x2 layers; 7.8M weights), batch 8,
// ReLU. Every weight is reused at 361 output positions, so OI = 361 * batch
// = 2888 (Table 1), and the 256-deep feature maps fill the matrix unit
// completely — Table 3 shows CNN0's active cycles are all useful MACs.
func cnn0() *nn.Model {
	m := &nn.Model{Name: "CNN0", Class: nn.CNN, Batch: 8, TimeSteps: 1}
	// A 5x5 stem over a 32-channel input, then 256-deep 3x3/2x2 layers:
	// 8.07M weights.
	kernels := []int{5, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3, 2, 3, 3, 3}
	cin := 32
	for i, k := range kernels {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("conv%d", i), Kind: nn.Conv,
			Conv: tensor.Conv2DShape{H: 19, W: 19, Cin: cin, K: k, S: 1, Cout: 256},
			Act:  fixed.ReLU,
		})
		cin = 256
	}
	return m
}

// cnn1 is AlphaGo-like: 72 conv layers on a 19x19 board (alternating deep
// and shallow feature depths — the shallow layers leave about half the
// matrix unit's MACs idle, Table 3 row 2/3) plus 4 FC layers holding most of
// the 100M weights (they run at OI = batch = 32, causing the weight-stall
// fraction the paper describes) and 13 vector layers; batch 32.
func cnn1() *nn.Model {
	m := &nn.Model{Name: "CNN1", Class: nn.CNN, Batch: 32, TimeSteps: 1}
	cin := 48
	for i := 0; i < 72; i++ {
		cout := 96 // shallow
		if i%2 == 1 {
			cout = 256 // deep
		}
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("conv%d", i), Kind: nn.Conv,
			Conv: tensor.Conv2DShape{H: 19, W: 19, Cin: cin, K: 3, S: 1, Cout: cout},
			Act:  fixed.ReLU,
		})
		cin = cout
	}
	flat := 19 * 19 * cin // 92,416
	m.Layers = append(m.Layers, nn.Layer{
		Name: "fc0", Kind: nn.FC, In: flat, Out: 880, Act: fixed.ReLU,
	})
	for i := 0; i < 6; i++ {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("vecA%d", i), Kind: nn.Vector, Width: 880,
			VOp: nn.VecBias, Act: fixed.ReLU,
		})
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "fc1", Kind: nn.FC, In: 880, Out: 880, Act: fixed.ReLU})
	for i := 0; i < 7; i++ {
		m.Layers = append(m.Layers, nn.Layer{
			Name: fmt.Sprintf("vecB%d", i), Kind: nn.Vector, Width: 880,
			VOp: nn.VecBias, Act: fixed.ReLU,
		})
	}
	m.Layers = append(m.Layers, nn.Layer{Name: "fc2", Kind: nn.FC, In: 880, Out: 880, Act: fixed.ReLU})
	m.Layers = append(m.Layers, nn.Layer{Name: "fc3", Kind: nn.FC, In: 880, Out: 880, Act: fixed.Identity})
	return m
}
