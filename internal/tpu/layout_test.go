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

// TestFCInPlaceRowsMatchReference holds FC layers to nn's reference where
// the array reads full-depth input rows where they lie in the Unified Buffer
// and the bytes beside them are not zero. In = 300 puts each example's first
// row tile beside 44 bytes of its second, which the device still gathers (a
// partial-depth tile, zero-padded); In = 520 does the same with two
// full-depth tiles and an 8-deep one. The test also makes nonzero the bytes
// no multiply may use — the input rows' padding in the host buffer and every
// weight row past a layer's depth — so a partial-depth tile read in place,
// or a full-depth one read with the wrong stride, changes the output. Batch
// 37 is two of amx's 16-row blocks and five rows more.
func TestFCInPlaceRowsMatchReference(t *testing.T) {
	m := &nn.Model{Name: "in-place", Class: nn.MLP, Batch: 37, TimeSteps: 1, Layers: []nn.Layer{
		{Name: "fc1", Kind: nn.FC, In: 300, Out: 520, Act: fixed.ReLU},
		{Name: "fc2", Kind: nn.FC, In: 520, Out: 70, Act: fixed.Identity},
	}}
	in := tensor.NewF32(m.Batch, m.InputElems())
	in.FillRandom(4, 1)
	qm, err := nn.QuantizeModel(m, nn.InitRandom(m, 6, 0.25), in)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	// A weight row that is zero in every column is a row past its layer's
	// depth: the random weights leave no real row all zero.
	img := slices.Clone(art.Program.WeightImage)
	dirtied := 0
	for tile := 0; tile < len(img); tile += isa.WeightTileBytes {
		for r := 0; r < isa.MatrixDim; r++ {
			zero := true
			for c := 0; c < isa.MatrixDim && zero; c++ {
				zero = img[tile+isa.WeightOffset(r, c)] == 0
			}
			if !zero {
				continue
			}
			for c := 0; c < isa.MatrixDim; c++ {
				img[tile+isa.WeightOffset(r, c)] = int8(r*7+c) | 1
			}
			dirtied++
		}
	}
	if dirtied == 0 {
		t.Fatal("no weight row past a layer's depth to make nonzero")
	}
	art.Program.WeightImage = img
	qin := qm.QuantizeInput(in)
	host, err := compiler.PackInput(art, qin)
	if err != nil {
		t.Fatal(err)
	}
	lay := art.Layout
	for b := 0; b < lay.Batch; b++ {
		row := host[lay.InputAddr+b*lay.InputStride : lay.InputAddr+(b+1)*lay.InputStride]
		for i := lay.InElems; i < len(row); i++ {
			row[i] = int8(0x5a ^ i)
		}
	}
	for _, par := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.Parallelism = par
		dev, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := slices.Clone(host)
		if _, err := dev.Run(art.Program, h); err != nil {
			t.Fatal(err)
		}
		got, err := compiler.UnpackOutput(art, h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := qm.Forward(qin)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Data, want.Data) {
			t.Fatalf("parallelism %d: the device's output is not nn's reference", par)
		}
	}
}
