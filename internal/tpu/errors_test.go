package tpu

import (
	"strings"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
)

// functionalDevice returns a functional-mode device and a minimal valid
// program skeleton with one weight tile and an identity activation table.
func functionalDevice(t *testing.T) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Functional = true
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func funcProg(ins ...isa.Instruction) *isa.Program {
	p := fixed.Params{Scale: 1}
	return &isa.Program{
		Name:         "err",
		Instructions: append(ins, isa.Instruction{Op: isa.OpHalt}),
		WeightImage:  make([]int8, isa.WeightTileBytes),
		ActTable:     []isa.ActMeta{{SrcScale: 1, Pre: p, Lut: fixed.NewLUT(fixed.Identity, p, p)}},
	}
}

func expectRunError(t *testing.T, p *isa.Program, substr string) {
	t.Helper()
	dev := functionalDevice(t)
	_, err := dev.Run(p, make([]int8, 1<<16))
	if err == nil {
		t.Fatalf("expected error containing %q, got success", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestMatmulBeyondAccumulatorFile(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, AccAddr: 4000, Len: 200},
	), "accumulators")
}

// TestMatmulWithoutTileAfterRun: a run starts with no weight tile in the
// array, also on a device whose last run left its tile resident — reset
// unloads the device's one tile, and an array whose tile views nothing has
// none — so a MatrixMultiply before the run's first tile load fails.
func TestMatmulWithoutTileAfterRun(t *testing.T) {
	host := make([]int8, 1<<16)
	used := functionalDevice(t)
	if _, err := used.Run(funcProg(
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile, Len: 1},
	), host); err != nil {
		t.Fatal(err)
	}
	bare := funcProg(isa.Instruction{Op: isa.OpMatrixMultiply, Len: 1})
	for name, dev := range map[string]*Device{"fresh": functionalDevice(t), "used": used} {
		if _, err := dev.Run(bare, host); err == nil || !strings.Contains(err.Error(), "no active weight tile") {
			t.Errorf("%s device: a multiply before any tile load gave %v", name, err)
		}
	}
}

func TestActivateUnknownFunc(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpActivate, AccAddr: 0, Len: 1, Func: 9},
	), "ActTable")
}

func TestConvolveWithoutGeometry(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile | isa.FlagConvolve,
			Len: isa.ConvDims(4, 9)},
	), "geometry")
}

func TestPoolWithoutGeometry(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpActivate, Flags: isa.FlagVecSrcUB | isa.FlagPool, Pool: 2, Len: 16},
	), "geometry")
}

func TestPoolNonTilingWindow(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpSetConfig, Tag: isa.RegConvH, Len: 3},
		isa.Instruction{Op: isa.OpSetConfig, Tag: isa.RegConvW, Len: 3},
		isa.Instruction{Op: isa.OpSetConfig, Tag: isa.RegConvCin, Len: 1},
		isa.Instruction{Op: isa.OpActivate, Flags: isa.FlagVecSrcUB | isa.FlagPool, Pool: 2, Len: 9},
	), "tile")
}

func TestVecScaleWithoutWidth(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpActivate, Flags: isa.FlagVecSrcUB | isa.FlagVecScale, Len: 16},
	), "width")
}

func TestSetConfigUnknownRegister(t *testing.T) {
	expectRunError(t, funcProg(
		isa.Instruction{Op: isa.OpSetConfig, Tag: 200, Len: 1},
	), "register")
}

func TestActivateMissingLUT(t *testing.T) {
	p := funcProg(isa.Instruction{Op: isa.OpActivate, AccAddr: 0, Len: 1})
	p.ActTable = []isa.ActMeta{{SrcScale: 1}} // no Lut
	expectRunError(t, p, "lookup table")
}

// TestRunRejectsBadWeightPlacement: run builds no WeightMemory, but Weight
// Memory's two placement errors still stop it — on a timing-only device
// too, before anything executes. New rejects a bad bandwidth before any run.
func TestRunRejectsBadWeightPlacement(t *testing.T) {
	for _, functional := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Functional = functional
		for _, tc := range []struct {
			name   string
			mutate func(p *isa.Program)
			want   string
		}{
			{"image past 8 GiB", func(p *isa.Program) { p.WeightBase = isa.WeightMemoryBytes - isa.WeightTileBytes }, "exceeds 8 GiB"},
			{"unaligned base", func(p *isa.Program) { p.WeightBase = 100 }, "not tile-aligned"},
		} {
			dev, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := funcProg()
			p.WeightImage = make([]int8, 2*isa.WeightTileBytes)
			tc.mutate(p)
			_, err = dev.Run(p, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("functional=%v, %s: error %v, want one containing %q", functional, tc.name, err, tc.want)
			}
		}
	}
}
