package tpu

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// TestRecycledTilesSeeWeightCorruption is the device-level half of the
// recycling contract: a device that has already run a program — so every
// tile it loads next is its one tile, which has latched checksums before —
// still computes from the bytes weight DRAM delivers. A burst of weight
// flips before the second run changes the output at IntegrityOff, fails the
// run at Detect and is repaired at Correct; a load that kept a stale copy
// would hide the corruption from all three.
func TestRecycledTilesSeeWeightCorruption(t *testing.T) {
	art, _, qin := functionalSetup(t, "MLP0")
	packed, err := compiler.PackInput(art, qin)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []IntegrityLevel{IntegrityOff, IntegrityDetect, IntegrityCorrect} {
		armed := false
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.Parallelism = 1
		cfg.Integrity = level
		cfg.Hook = func(ctx context.Context, inv Invocation) (Counters, error) {
			if armed {
				// Sign bits on the diagonal of the last layer's tile: the
				// output layer reads them directly.
				last := uint64(art.Program.WeightTiles()-1) * isa.WeightTileBytes
				for k := uint64(0); k < 8; k++ {
					inv.Inject(Flip{Target: FlipWeights, Addr: last + k*isa.MatrixDim + k, Bit: 7})
				}
			}
			return inv.Run()
		}
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() ([]int8, Counters, error) {
			host := slices.Clone(packed)
			c, err := dev.Run(art.Program, host)
			return host, c, err
		}
		clean, _, err := run()
		if err != nil {
			t.Fatalf("%v: clean run: %v", level, err)
		}
		if again, _, err := run(); err != nil || !slices.Equal(again, clean) {
			t.Fatalf("%v: second clean run on recycled tiles differs (err %v)", level, err)
		}
		armed = true
		out, c, err := run()
		switch level {
		case IntegrityOff:
			if err != nil {
				t.Fatalf("Off: corrupted run failed: %v", err)
			}
			if slices.Equal(out, clean) {
				t.Fatal("Off: weight flips before a run on recycled tiles left the output unchanged")
			}
		case IntegrityDetect:
			if !IsSDC(err) {
				t.Fatalf("Detect: want an SDCError, got %v", err)
			}
		case IntegrityCorrect:
			if err != nil {
				t.Fatalf("Correct: not repaired: %v", err)
			}
			if c.IntegrityCorrected == 0 || !slices.Equal(out, clean) {
				t.Fatalf("Correct: corrected %d, output equals clean run: %v", c.IntegrityCorrected, slices.Equal(out, clean))
			}
		}
	}
}

// tinyRunner returns a functional device and a closure that runs MLP0-tiny
// (five FC layers, so five tile loads alternating accumulator halves) on it
// from the same packed input each time.
func tinyRunner(tb testing.TB) (*Device, func()) {
	tb.Helper()
	art, _, qin := functionalSetup(tb, "MLP0")
	packed, err := compiler.PackInput(art, qin)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.Parallelism = 1
	dev, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	host := make([]int8, len(packed))
	return dev, func() {
		copy(host, packed)
		if _, err := dev.Run(art.Program, host); err != nil {
			tb.Fatal(err)
		}
	}
}

// wideRunner returns a closure that runs the wide MLP — four FC 1024 x 1024
// ReLU layers at batch 64 — on one functional device with Parallelism 1: the
// device run the infer_batch benchmark makes per batch. Each layer is 16
// MatrixMultiply tiles (12 of them accumulating) and four 64-row drains.
func wideRunner(tb testing.TB) func() {
	tb.Helper()
	m := &nn.Model{Name: "MLP-wide", Class: nn.MLP, Batch: 64, TimeSteps: 1}
	for i := 0; i < 4; i++ {
		m.Layers = append(m.Layers, nn.Layer{Kind: nn.FC, In: 1024, Out: 1024, Act: fixed.ReLU})
	}
	p := nn.InitRandom(m, 1, 0.05)
	in := tensor.NewF32(m.BatchInputShape()...)
	in.FillRandom(2, 1)
	qm, err := nn.QuantizeModel(m, p, in)
	if err != nil {
		tb.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		tb.Fatal(err)
	}
	host, err := compiler.PackInput(art, qm.QuantizeInput(in))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.Parallelism = 1
	dev, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := dev.Run(art.Program, host); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestTileLoadAliasesWeightDRAM: a tile load copies nothing, and a device
// rebuilds nothing per run. After every warmed-up run of a multi-layer
// program the array's resident tile is the device's one tile, viewing, by
// address, the last tile of the device's live weight image; and a warmed-up
// run of the tiny MLP or of the wide one allocates no object at all — no
// fetch buffer, no copy of the weights, no array.
func TestTileLoadAliasesWeightDRAM(t *testing.T) {
	dev, run := tinyRunner(t)
	for i := 0; i < 20; i++ {
		run()
		if dev.arr.Active() != dev.tile {
			t.Fatalf("run %d: the resident tile is not the device's tile", i)
		}
	}
	last := dev.prog.WeightBase + uint64(dev.prog.WeightTiles()-1)*isa.WeightTileBytes
	live, ok := dev.gw.TileView(last)
	if !ok {
		t.Fatal("the image does not cover its last tile")
	}
	if resident := dev.arr.Active().Bytes(); &resident[0] != &live[0] {
		t.Fatal("the resident tile's bytes are not the live weight image's bytes")
	}
	if n := testing.AllocsPerRun(50, run); n != 0 {
		t.Fatalf("a warmed-up run of the tiny MLP allocates %v objects, want 0", n)
	}
	if n := testing.AllocsPerRun(5, wideRunner(t)); n != 0 {
		t.Fatalf("a warmed-up run of the wide MLP allocates %v objects, want 0", n)
	}
}

// TestNewDeviceFootprint: a functional device costs nothing up front for its
// 4 MiB accumulator file or its 24 MiB Unified Buffer — both are backed as a
// program addresses them (it was 28 MiB per device, then 4).
func TestNewDeviceFootprint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Functional = true
	var dev *Device
	grew := allocBytesPerRun(1, func() {
		var err error
		if dev, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if grew >= 1<<20 {
		t.Fatalf("tpu.New(functional) allocated %.1f MiB, want < 1", float64(grew)/(1<<20))
	}
	runtime.KeepAlive(dev)
}

// TestNothingWritesThroughAccumulatorLoad: Load hands out the one shared
// zero register for every register of an unbacked block, so a datapath that
// wrote through a loaded register would corrupt all of them. After every
// tiny model has run (Activate drains are the device's only Load), registers
// no model stores to still read as zero — with the integrity checks on,
// where every MatrixMultiply stores through StoreRows, and off, where the
// array writes into the registers Rows hands it.
func TestNothingWritesThroughAccumulatorLoad(t *testing.T) {
	for _, level := range []IntegrityLevel{IntegrityCorrect, IntegrityOff} {
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.Integrity = level
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireUnstoredZero(t, dev)
	}
}

// requireUnstoredZero runs every tiny model on dev and checks the registers
// none of them stores to.
func requireUnstoredZero(t *testing.T, dev *Device) {
	t.Helper()
	for _, name := range models.Names() {
		art, _, qin := functionalSetup(t, name)
		host, err := compiler.PackInput(art, qin)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Run(art.Program, host); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, idx := range []int{isa.AccumulatorCount/2 - 1, isa.AccumulatorCount - 1} {
			reg, err := dev.acc.Load(idx)
			if err != nil {
				t.Fatal(err)
			}
			if *reg != ([isa.MatrixDim]int32{}) {
				t.Fatalf("after %s: register %d, which nothing stores to, is not zero", name, idx)
			}
		}
	}
}

// BenchmarkRunTiny is one warmed-up functional run of MLP0-tiny on one
// device — what a serve dispatch costs below the runtime. It allocates
// nothing (TestTileLoadAliasesWeightDRAM).
func BenchmarkRunTiny(b *testing.B) {
	_, run := tinyRunner(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkRunWide is one warmed-up functional run of the wide MLP
// (wideRunner): the device run the infer_batch benchmark makes per batch.
func BenchmarkRunWide(b *testing.B) {
	run := wideRunner(b)
	run()
	b.ReportAllocs()
	for b.Loop() {
		run()
	}
}
