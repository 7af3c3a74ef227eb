package tpu

import (
	"math"
	"strings"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/isa"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// TestNewRejectsBadConfig: a clock or weight bandwidth that is NaN,
// infinite, zero or negative is an error, never a device whose counters
// print nonsense.
func TestNewRejectsBadConfig(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, field := range []string{"ClockMHz", "WeightGBs"} {
			cfg := DefaultConfig()
			if field == "ClockMHz" {
				cfg.ClockMHz = v
			} else {
				cfg.WeightGBs = v
			}
			if _, err := New(cfg); err == nil {
				t.Errorf("%s = %v accepted", field, v)
			}
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("production config rejected: %v", err)
	}
}

func TestDefaultConfigIsProductionTPU(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.ClockMHz != 700 || cfg.WeightGBs != 34 {
		t.Errorf("default config = %+v", cfg)
	}
}

// functionalSetup compiles a tiny model and returns everything needed to
// run it both on the device and through the quantized reference.
func functionalSetup(t testing.TB, name string) (*compiler.Artifact, *nn.QuantizedModel, *tensor.I8) {
	t.Helper()
	m, err := models.Tiny(name)
	if err != nil {
		t.Fatal(err)
	}
	p := nn.InitRandom(m, 7, 0.25)
	var in *tensor.F32
	if m.Class == nn.CNN {
		c := m.Layers[0].Conv
		in = tensor.NewF32(m.Batch, c.H, c.W, c.Cin)
	} else {
		in = tensor.NewF32(m.Batch, m.InputElems())
	}
	in.FillRandom(8, 1)
	qm, err := nn.QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	return art, qm, qm.QuantizeInput(in)
}

// TestDeviceMatchesQuantizedReference is the end-to-end functional
// validation: for every benchmark structure, inference through the full
// simulated datapath (DMA -> Unified Buffer -> systolic array ->
// accumulators -> activation unit -> DMA) must match the quantized
// reference implementation bit for bit.
func TestDeviceMatchesQuantizedReference(t *testing.T) {
	for _, name := range models.Names() {
		art, qm, qin := functionalSetup(t, name)
		host, err := compiler.PackInput(art, qin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg := DefaultConfig()
		cfg.Functional = true
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		counters, err := dev.Run(art.Program, host)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		got, err := compiler.UnpackOutput(art, host)
		if err != nil {
			t.Fatal(err)
		}
		want, err := qm.Forward(qin)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(want.Data) {
			t.Fatalf("%s: output size %d vs %d", name, len(got.Data), len(want.Data))
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: output[%d] = %d, reference %d (bit-exactness violated)",
					name, i, got.Data[i], want.Data[i])
			}
		}
		if counters.Cycles <= 0 {
			t.Errorf("%s: no cycles counted", name)
		}
		if counters.Matmuls == 0 {
			t.Errorf("%s: no matmuls counted", name)
		}
	}
}

// TestTimingIdenticalAcrossModes: timing-only and functional runs of the
// same program must produce identical counters.
func TestTimingIdenticalAcrossModes(t *testing.T) {
	for _, name := range []string{"MLP0", "CNN1", "LSTM0"} {
		art, _, qin := functionalSetup(t, name)
		host, err := compiler.PackInput(art, qin)
		if err != nil {
			t.Fatal(err)
		}
		fCfg := DefaultConfig()
		fCfg.Functional = true
		fdev, _ := New(fCfg)
		fc, err := fdev.Run(art.Program, host)
		if err != nil {
			t.Fatal(err)
		}
		tdev, _ := New(DefaultConfig())
		tc, err := tdev.Run(art.Program, nil)
		if err != nil {
			t.Fatal(err)
		}
		fc.DMAInBytes, tc.DMAInBytes = 0, 0 // identical anyway, but compare all
		if fc != tc {
			t.Errorf("%s: counters differ between modes:\nfunctional: %+v\ntiming:     %+v", name, fc, tc)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	art, _, _ := functionalSetup(t, "LSTM0")
	dev, _ := New(DefaultConfig())
	c1, err := dev.Run(art.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := dev.Run(art.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("two runs of the same program disagree")
	}
}

func TestFunctionalRequiresWeightImage(t *testing.T) {
	m, _ := models.Tiny("MLP0")
	art, err := compiler.CompileShape(m, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Functional = true
	dev, _ := New(cfg)
	if _, err := dev.Run(art.Program, nil); err == nil {
		t.Error("functional run without weight image accepted")
	}
}

func TestCountersAccounting(t *testing.T) {
	art, _, _ := functionalSetup(t, "MLP0")
	dev, _ := New(DefaultConfig())
	c, err := dev.Run(art.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := c.Fractions()
	total := f.ArrayActive + f.WeightStall + f.WeightShift + f.NonMatrix
	// Table 3: "Rows 1, 4, 5, and 6 total 100%".
	if total < 0.999 || total > 1.001 {
		t.Errorf("cycle accounting sums to %v, want 1.0", total)
	}
	if f.UsefulMACs > f.ArrayActive+1e-9 {
		t.Error("useful MACs exceed active cycles")
	}
	if c.MACs <= 0 {
		t.Error("no MACs counted")
	}
}

func TestCountersString(t *testing.T) {
	art, _, _ := functionalSetup(t, "MLP0")
	dev, _ := New(DefaultConfig())
	c, _ := dev.Run(art.Program, nil)
	s := c.String()
	for _, want := range []string{"array active", "weight stall", "non-matrix"} {
		if !strings.Contains(s, want) {
			t.Errorf("counter report missing %q", want)
		}
	}
}

func TestTeraOps(t *testing.T) {
	c := Counters{Cycles: 700e6, MACs: 1e12} // one second at 700 MHz
	if got := c.TeraOps(700); got != 2 {
		t.Errorf("TeraOps = %v, want 2 (2 ops per MAC)", got)
	}
	if got := c.Seconds(700); got != 1 {
		t.Errorf("Seconds = %v, want 1", got)
	}
	var zero Counters
	if zero.TeraOps(700) != 0 {
		t.Error("zero-cycle TeraOps should be 0")
	}
}

func TestEmptyFIFOPopRejected(t *testing.T) {
	prog := &isa.Program{Name: "bad", Instructions: []isa.Instruction{
		{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 1},
		{Op: isa.OpHalt},
	}}
	dev, _ := New(DefaultConfig())
	if _, err := dev.Run(prog, nil); err == nil {
		t.Error("matmul popping empty FIFO accepted")
	}
}

func TestHostBufferBounds(t *testing.T) {
	prog := &isa.Program{
		Name: "dma",
		Instructions: []isa.Instruction{
			{Op: isa.OpReadHostMemory, Addr: 0, UBAddr: 0, Len: 1 << 20},
			{Op: isa.OpHalt},
		},
		WeightImage: []int8{},
	}
	cfg := DefaultConfig()
	cfg.Functional = true
	dev, _ := New(cfg)
	if _, err := dev.Run(prog, make([]int8, 16)); err == nil {
		t.Error("DMA past host buffer accepted")
	}
}

func TestPoolThroughDevice(t *testing.T) {
	// A conv+pool model runs functionally and matches the quantized
	// reference.
	m := &nn.Model{Name: "pool", Class: nn.CNN, Batch: 2, TimeSteps: 1, Layers: []nn.Layer{
		{Name: "conv", Kind: nn.Conv, Conv: tensor.Conv2DShape{H: 4, W: 4, Cin: 2, K: 3, S: 1, Cout: 3}},
		{Name: "pool", Kind: nn.Pool, PoolWindow: 2},
	}}
	p := nn.InitRandom(m, 3, 0.3)
	in := tensor.NewF32(2, 4, 4, 2)
	in.FillRandom(4, 1)
	qm, err := nn.QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	qin := qm.QuantizeInput(in)
	host, err := compiler.PackInput(art, qin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Functional = true
	dev, _ := New(cfg)
	if _, err := dev.Run(art.Program, host); err != nil {
		t.Fatal(err)
	}
	got, err := compiler.UnpackOutput(art, host)
	if err != nil {
		t.Fatal(err)
	}
	want, err := qm.Forward(qin)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("pooled output[%d] = %d, want %d", i, got.Data[i], want.Data[i])
		}
	}
}
