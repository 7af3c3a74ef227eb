package tpu

import (
	"fmt"
	"math/rand"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// randomModel builds a random small model mixing FC and Vector layers.
func randomModel(seed int64) *nn.Model {
	rng := rand.New(rand.NewSource(seed))
	m := &nn.Model{Name: "prop", Class: nn.MLP, Batch: rng.Intn(5) + 1, TimeSteps: 1}
	width := rng.Intn(30) + 4
	acts := []fixed.Nonlinearity{fixed.Identity, fixed.ReLU, fixed.Sigmoid, fixed.Tanh}
	n := rng.Intn(4) + 1
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0, 1:
			out := rng.Intn(30) + 4
			m.Layers = append(m.Layers, nn.Layer{
				Kind: nn.FC, In: width, Out: out, Act: acts[rng.Intn(len(acts))],
			})
			width = out
		case 2:
			vops := []nn.VecOp{nn.VecActivation, nn.VecScale, nn.VecBias}
			m.Layers = append(m.Layers, nn.Layer{
				Kind: nn.Vector, Width: width, VOp: vops[rng.Intn(len(vops))],
				Act: acts[rng.Intn(len(acts))],
			})
		}
	}
	return m
}

// boundaryModels are fixed models on the datapath's boundaries, which the
// random generator's widths 4–33 and batches 1–5 never reach: FC widths
// either side of the 256-wide weight tile, batches either side of a 16-row
// amx block, and a convolution whose Cin·K² contraction crosses one tile.
func boundaryModels() []*nn.Model {
	var ms []*nn.Model
	for i, w := range []int{255, 256, 257} {
		m := &nn.Model{Name: fmt.Sprintf("fc%d-b%d", w, 15+i), Class: nn.MLP, Batch: 15 + i, TimeSteps: 1}
		m.Layers = []nn.Layer{
			{Kind: nn.FC, In: w, Out: w, Act: fixed.ReLU},
			{Kind: nn.FC, In: w, Out: 257 - i, Act: fixed.Sigmoid},
		}
		ms = append(ms, m)
	}
	return append(ms, &nn.Model{Name: "conv-cin29-k3", Class: nn.CNN, Batch: 17, TimeSteps: 1,
		Layers: []nn.Layer{{Kind: nn.Conv, Conv: tensor.Conv2DShape{H: 4, W: 4, Cin: 29, K: 3, S: 1, Cout: 16}, Act: fixed.ReLU}}})
}

// TestDeviceBitExactOnRandomModels is the strongest end-to-end property:
// for randomly generated models and the fixed boundary models, the full
// simulated datapath (compile -> DMA -> systolic array -> accumulators ->
// activation unit -> DMA) agrees bit for bit with the standalone quantized
// reference.
func TestDeviceBitExactOnRandomModels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Functional = true
	var ms []*nn.Model
	for seed := int64(0); seed < 25; seed++ {
		ms = append(ms, randomModel(seed))
	}
	for i, m := range append(ms, boundaryModels()...) {
		// The boundary models run unsharded, so that the kernel sees their
		// batch boundaries whatever the host's thread count.
		cfg.Parallelism = 0
		if i >= len(ms) {
			cfg.Parallelism = 1
		}
		seed := int64(i)
		p := nn.InitRandom(m, seed*7+1, 0.2)
		in := tensor.NewF32(m.BatchInputShape()...)
		in.FillRandom(seed*7+2, 1)
		qm, err := nn.QuantizeModel(m, p, in)
		if err != nil {
			t.Fatalf("%s %d: %v", m.Name, seed, err)
		}
		art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
		if err != nil {
			t.Fatalf("%s %d: compile: %v", m.Name, seed, err)
		}
		qin := qm.QuantizeInput(in)
		host, err := compiler.PackInput(art, qin)
		if err != nil {
			t.Fatalf("%s %d: %v", m.Name, seed, err)
		}
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Run(art.Program, host); err != nil {
			t.Fatalf("%s %d: run: %v", m.Name, seed, err)
		}
		got, err := compiler.UnpackOutput(art, host)
		if err != nil {
			t.Fatalf("%s %d: %v", m.Name, seed, err)
		}
		want, err := qm.Forward(qin)
		if err != nil {
			t.Fatalf("%s %d: %v", m.Name, seed, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s %d (%d layers, batch %d): output[%d] = %d, reference %d",
					m.Name, seed, len(m.Layers), m.Batch, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestBothAllocatorsBitExact: allocator choice changes addresses, never
// results.
func TestBothAllocatorsBitExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Functional = true
	m := randomModel(99)
	p := nn.InitRandom(m, 100, 0.2)
	in := tensor.NewF32(m.Batch, m.InputElems())
	in.FillRandom(101, 1)
	qm, err := nn.QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	qin := qm.QuantizeInput(in)
	var outputs [][]int8
	for _, kind := range []compiler.Kind{compiler.Naive, compiler.Reuse} {
		art, err := compiler.Compile(qm, compiler.Options{Allocator: kind})
		if err != nil {
			t.Fatal(err)
		}
		host, err := compiler.PackInput(art, qin)
		if err != nil {
			t.Fatal(err)
		}
		dev, _ := New(cfg)
		if _, err := dev.Run(art.Program, host); err != nil {
			t.Fatal(err)
		}
		out, err := compiler.UnpackOutput(art, host)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out.Data)
	}
	for i := range outputs[0] {
		if outputs[0][i] != outputs[1][i] {
			t.Fatalf("allocators disagree at output %d", i)
		}
	}
}
