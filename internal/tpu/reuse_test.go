package tpu

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/isa"
)

// TestRecycledTilesSeeWeightCorruption is the device-level half of the
// recycling contract: a device that has already run a program — so every
// tile it loads next is a recycled buffer with a latched lane image and
// latched checksums — still computes from the bytes weight DRAM delivers.
// A burst of weight flips before the second run changes the output at
// IntegrityOff, fails the run at Detect and is repaired at Correct; a load
// that kept a stale pack would hide the corruption from all three.
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

// TestTileBuffersRecycled: the matrix unit has two tile buffers and a
// device holds on to no more — after any number of runs of a multi-layer
// program the free list is short, and a warmed-up run allocates no Tile
// (64 KiB) and no lane image (64 KiB).
func TestTileBuffersRecycled(t *testing.T) {
	dev, run := tinyRunner(t)
	for i := 0; i < 20; i++ {
		run()
		if n := len(dev.tileFree) + 1; n > 3 { // + the resident tile
			t.Fatalf("run %d: device holds %d tile buffers", i, n)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 50
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 16<<10 {
		t.Fatalf("a warmed-up run allocates %d B, want well under one 64 KiB tile", perRun)
	}
}

// TestNewDeviceFootprint: a functional device costs its 4 MiB accumulator
// file up front and nothing for the 24 MiB Unified Buffer until a program
// addresses it (it was 28 MiB per device).
func TestNewDeviceFootprint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Functional = true
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 6<<20 {
		t.Fatalf("tpu.New(functional) allocated %.1f MiB, want < 6", float64(grew)/(1<<20))
	}
	runtime.KeepAlive(dev)
}

// BenchmarkRunTiny is one warmed-up functional run of MLP0-tiny on one
// device — what a serve dispatch costs below the runtime. B/op is the
// number to watch: the device recycles its tile buffers, so it should stay
// far below one 64 KiB tile.
func BenchmarkRunTiny(b *testing.B) {
	_, run := tinyRunner(b)
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
