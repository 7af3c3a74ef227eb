package tpu

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// TestWeightFlipLandsOnItsWeight: a weight flip's address names a weight
// the way a row-major tile would — tile, row, column — whatever order Weight
// Memory holds the tile in. One FC layer of 512 x 300 compiles to four
// tiles, the last two covering 44 columns; for flips in each of them, at the
// edges of a quad and of a tile, the flipped device's output is nn's
// reference on the same weights with that one weight's bit flipped, and it
// differs from the clean output. Batch 20 takes the amx rung's 16-row block
// and the rows it leaves to the VNNI kernel.
func TestWeightFlipLandsOnItsWeight(t *testing.T) {
	m := &nn.Model{Name: "flip", Class: nn.MLP, Batch: 20, TimeSteps: 1, Layers: []nn.Layer{
		{Name: "fc", Kind: nn.FC, In: 512, Out: 300, Act: fixed.Identity},
	}}
	in := tensor.NewF32(m.Batch, m.InputElems())
	in.FillRandom(3, 1)
	qm, err := nn.QuantizeModel(m, nn.InitRandom(m, 5, 0.25), in)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	qin := qm.QuantizeInput(in)
	packed, err := compiler.PackInput(art, qin)
	if err != nil {
		t.Fatal(err)
	}
	const rowTiles = 2 // tile k holds row tile k%2 of column tile k/2
	run := func(flip *Flip) *tensor.I8 {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.Hook = func(ctx context.Context, inv Invocation) (Counters, error) {
			if flip != nil {
				inv.Inject(*flip)
			}
			return inv.Run()
		}
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		host := slices.Clone(packed)
		if _, err := dev.Run(art.Program, host); err != nil {
			t.Fatal(err)
		}
		out, err := compiler.UnpackOutput(art, host)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	clean := run(nil)
	for _, f := range []struct{ tile, r, c, bit int }{
		{0, 0, 0, 7}, {0, 3, 255, 7}, {0, 4, 17, 6}, {1, 130, 77, 7},
		{1, 255, 128, 5}, {2, 1, 43, 7}, {3, 254, 0, 7}, {3, 67, 31, 4},
	} {
		t.Run(fmt.Sprintf("tile%d/r%d/c%d/bit%d", f.tile, f.r, f.c, f.bit), func(t *testing.T) {
			addr := uint64(f.tile*isa.WeightTileBytes + f.r*isa.MatrixDim + f.c)
			got := run(&Flip{Target: FlipWeights, Addr: addr, Bit: uint8(f.bit)})

			flipped := *qm
			flipped.Weights = slices.Clone(qm.Weights)
			w := *qm.Weights[0]
			w.Data = slices.Clone(w.Data)
			row, col := f.tile%rowTiles*isa.MatrixDim+f.r, f.tile/rowTiles*isa.MatrixDim+f.c
			w.Data[row*m.Layers[0].Out+col] ^= int8(1 << f.bit)
			flipped.Weights[0] = &w
			want, err := flipped.Forward(qin)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Data, want.Data) {
				t.Fatalf("flipping weight (%d, %d): the device's output is not nn's with that weight flipped", row, col)
			}
			if slices.Equal(got.Data, clean.Data) {
				t.Fatalf("flipping weight (%d, %d) left the output unchanged", row, col)
			}
		})
	}
}
