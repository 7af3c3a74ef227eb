package tpu

import (
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/isa"
	"tpusim/internal/models"
)

// progBuilder assembles small hand-written timing programs.
func mustProg(t *testing.T, name string, weightTiles int, ins ...isa.Instruction) *isa.Program {
	t.Helper()
	p := &isa.Program{
		Name:         name,
		Instructions: append(ins, isa.Instruction{Op: isa.OpHalt}),
		WeightBytes:  int64(weightTiles) * isa.WeightTileBytes,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, cfg Config, p *isa.Program) Counters {
	t.Helper()
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dev.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMatmulPipelinedCycles: "A matrix operation takes a variable-sized
// B*256 input ... taking B pipelined cycles to complete."
func TestMatmulPipelinedCycles(t *testing.T) {
	p := mustProg(t, "b200", 1,
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 200},
	)
	c := run(t, DefaultConfig(), p)
	if c.MatrixActive != 200 {
		t.Errorf("active = %d, want 200 (B pipelined cycles)", c.MatrixActive)
	}
}

// TestSixteenBitSpeedModes: half speed with one 16-bit operand, quarter
// with both.
func TestSixteenBitSpeedModes(t *testing.T) {
	for _, tc := range []struct {
		flags uint16
		want  int64
	}{
		{0, 100},
		{isa.FlagWeights16, 200},
		{isa.FlagActs16, 200},
		{isa.FlagWeights16 | isa.FlagActs16, 400},
	} {
		p := mustProg(t, "prec", 1,
			isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
			isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile | tc.flags, Len: 100},
		)
		c := run(t, DefaultConfig(), p)
		if c.MatrixActive != tc.want {
			t.Errorf("flags %#x: active = %d, want %d", tc.flags, c.MatrixActive, tc.want)
		}
	}
}

// TestWeightStallAccounting: a matmul that must wait for its tile charges
// the wait to weight-stall and shift counters, reproducing the Table 3
// structure: one tile fetch is ~1350 cycles, the shift 256, and a B=100
// compute 100, so stall ~= 1350 - nothing-before-it.
func TestWeightStallAccounting(t *testing.T) {
	p := mustProg(t, "stall", 1,
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 100},
	)
	c := run(t, DefaultConfig(), p)
	// Fetch ends ~1350 cycles after issue; the matrix unit waited roughly
	// that long (minus issue offset), then shifted 256, then computed 100.
	if c.WeightStall < 1200 || c.WeightStall > 1500 {
		t.Errorf("weight stall = %d, want ~1350", c.WeightStall)
	}
	if c.WeightShift != 256 {
		t.Errorf("weight shift = %d, want 256", c.WeightShift)
	}
}

// TestBackToBackTilesPacedByDRAM: streaming many tiles, the matrix unit is
// paced by the DRAM: total time ~= tiles * tileFetch, matching the MLP
// behaviour of Table 3.
func TestBackToBackTilesPacedByDRAM(t *testing.T) {
	const tiles = 16
	ins := []isa.Instruction{}
	for i := 0; i < tiles; i++ {
		ins = append(ins,
			isa.Instruction{Op: isa.OpReadWeights, Addr: uint64(i) * isa.WeightTileBytes, TileCount: 1},
			isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 100},
		)
	}
	c := run(t, DefaultConfig(), mustProg(t, "stream", tiles, ins...))
	perTile := float64(c.Cycles) / tiles
	if perTile < 1300 || perTile > 1500 {
		t.Errorf("per-tile period = %.0f cycles, want ~1350 (DRAM paced)", perTile)
	}
}

// TestComputeBoundHidesFetch: with B much larger than the fetch time, the
// matrix unit dominates and weight stalls vanish — the CNN0 regime.
func TestComputeBoundHidesFetch(t *testing.T) {
	const tiles = 8
	ins := []isa.Instruction{}
	for i := 0; i < tiles; i++ {
		ins = append(ins,
			isa.Instruction{Op: isa.OpReadWeights, Addr: uint64(i) * isa.WeightTileBytes, TileCount: 1},
			isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 2000},
		)
	}
	c := run(t, DefaultConfig(), mustProg(t, "compute", tiles, ins...))
	f := c.Fractions()
	if f.ArrayActive < 0.85 {
		t.Errorf("active = %.0f%%, compute-bound stream should be ~busy", f.ArrayActive*100)
	}
	// Only the first tile's fetch is exposed.
	if c.WeightStall > 1500 {
		t.Errorf("weight stall = %d, should be one fetch at most", c.WeightStall)
	}
}

// TestFIFOBackpressure: more than FIFODepth outstanding fetches without
// pops is a program error the device reports rather than mis-times.
func TestFIFOBackpressure(t *testing.T) {
	// 5 tiles fetched, none popped: the 5th fetch needs a pop that never
	// happened earlier in program order.
	ins := []isa.Instruction{
		{Op: isa.OpReadWeights, Addr: 0, TileCount: 5},
	}
	p := &isa.Program{Name: "overflow", Instructions: append(ins, isa.Instruction{Op: isa.OpHalt}),
		WeightBytes: 5 * isa.WeightTileBytes}
	dev, _ := New(DefaultConfig())
	if _, err := dev.Run(p, nil); err == nil {
		t.Error("FIFO overflow not reported")
	}
}

// TestFIFODepthConfig: with a deeper FIFO the same 5-tile prefetch is
// legal.
func TestFIFODepthConfig(t *testing.T) {
	ins := []isa.Instruction{
		{Op: isa.OpReadWeights, Addr: 0, TileCount: 5},
	}
	for i := 0; i < 5; i++ {
		ins = append(ins, isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 10})
	}
	cfg := DefaultConfig()
	cfg.FIFODepth = 8
	p := &isa.Program{Name: "deep", Instructions: append(ins, isa.Instruction{Op: isa.OpHalt}),
		WeightBytes: 5 * isa.WeightTileBytes}
	dev, _ := New(cfg)
	if _, err := dev.Run(p, nil); err != nil {
		t.Errorf("deep FIFO rejected legal prefetch: %v", err)
	}
}

// TestSyncExposesActivationDrain: the "delay slot" — a Sync after an
// Activate waits for the activation unit, counted as RAW stall.
func TestSyncExposesActivationDrain(t *testing.T) {
	p := mustProg(t, "delay", 1,
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 1000},
		isa.Instruction{Op: isa.OpActivate, AccAddr: 0, Len: 1000},
		isa.Instruction{Op: isa.OpSync},
	)
	c := run(t, DefaultConfig(), p)
	if c.RAWStall < 500 {
		t.Errorf("RAW stall = %d, the sync should expose the 1000-row drain", c.RAWStall)
	}
}

// TestSyncAttributesPCIeToInputStall: waiting on a DMA at a sync counts as
// input stall (Table 3 row 8).
func TestSyncAttributesPCIeToInputStall(t *testing.T) {
	p := mustProg(t, "input", 0,
		isa.Instruction{Op: isa.OpReadHostMemory, Addr: 0, UBAddr: 0, Len: 1 << 20},
		isa.Instruction{Op: isa.OpSync},
	)
	c := run(t, DefaultConfig(), p)
	// 1 MiB at 20 B/cycle = ~52k cycles of input stall.
	if c.InputStall < 40000 {
		t.Errorf("input stall = %d, want ~52000", c.InputStall)
	}
	if c.RAWStall != 0 {
		t.Errorf("RAW stall = %d, want 0", c.RAWStall)
	}
}

// TestRepeatField: the CISC repeat field multiplies execution.
func TestRepeatField(t *testing.T) {
	p := mustProg(t, "repeat", 0,
		isa.Instruction{Op: isa.OpNop, Repeat: 10},
	)
	c := run(t, DefaultConfig(), p)
	// 10 nops + 1 halt.
	if c.Instructions != 11 {
		t.Errorf("instructions = %d, want 11", c.Instructions)
	}
}

// TestActivateThroughput: the activation unit drains one accumulator
// register per cycle (acc source) and 256 bytes per cycle (UB source).
func TestActivateThroughput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	for _, tc := range []struct {
		src   string
		flags uint16
		want  float64
	}{{"acc", 0, 512}, {"UB", isa.FlagVecSrcUB, 2}} {
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := mustProg(t, tc.src, 0, isa.Instruction{Op: isa.OpActivate, Flags: tc.flags, Len: 512})
		if _, err := dev.Run(p, nil); err != nil {
			t.Fatal(err)
		}
		if got := UnitOccupancy(dev.Trace())["activation"]; got != tc.want {
			t.Errorf("%s-source activate = %v cycles, want %v", tc.src, got, tc.want)
		}
	}
}

// TestGDDR5WhatIf: running MLP0 with the K80's memory system roughly
// triples performance — the paper's headline TPU' claim, on the simulator
// rather than the analytic model.
func TestGDDR5WhatIf(t *testing.T) {
	b, err := models.ByName("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	base := run(t, DefaultConfig(), mustNoErr(t, art))
	fast := DefaultConfig()
	fast.WeightGBs = 184
	prime := run(t, fast, mustNoErr(t, art))
	speedup := float64(base.Cycles) / float64(prime.Cycles)
	if speedup < 2.5 || speedup > 5 {
		t.Errorf("GDDR5 speedup = %.2f, paper says ~3x for memory-bound apps", speedup)
	}
}

func mustNoErr(t *testing.T, art *compiler.Artifact) *isa.Program {
	t.Helper()
	return art.Program
}
