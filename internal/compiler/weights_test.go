package compiler

import (
	"fmt"
	"math/rand"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// TestWeightImageInMatrixUnitOrder: the functional compile's weight image,
// read back through isa.WeightOffset tile by tile, is every matrix layer's
// quantized weights, with the padding of partial tiles zero. The six tiny
// models bring convolutions with 18, 27 and 36 contraction rows (quads cut
// short), and FC layers are drawn with partial row and column tiles: used
// rows not a multiple of four, used columns under 256 and not a multiple of
// eight, and several tiles per layer.
func TestWeightImageInMatrixUnitOrder(t *testing.T) {
	var ms []*nn.Model
	for _, name := range models.Names() {
		m, err := models.Tiny(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	rng := rand.New(rand.NewSource(57))
	shapes := [][2]int{{30, 100}, {257, 7}, {513, 300}, {4, 256}}
	for range 4 {
		shapes = append(shapes, [2]int{1 + rng.Intn(700), 1 + rng.Intn(700)})
	}
	for _, s := range shapes {
		m := &nn.Model{Name: fmt.Sprintf("fc%dx%d", s[0], s[1]), Class: nn.MLP, Batch: 2, TimeSteps: 1}
		m.Layers = []nn.Layer{
			{Name: "fc0", Kind: nn.FC, In: s[0], Out: s[1], Act: fixed.ReLU},
			{Name: "fc1", Kind: nn.FC, In: s[1], Out: s[0], Act: fixed.Identity},
		}
		ms = append(ms, m)
	}
	for i, m := range ms {
		var in *tensor.F32
		if c := m.Layers[0].Conv; m.Layers[0].Kind == nn.Conv {
			in = tensor.NewF32(m.Batch, c.H, c.W, c.Cin)
		} else {
			in = tensor.NewF32(m.Batch, m.InputElems())
		}
		in.FillRandom(int64(i), 1)
		qm, err := nn.QuantizeModel(m, nn.InitRandom(m, int64(i)+1, 0.25), in)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		art, err := Compile(qm, Options{Allocator: Reuse})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		img, off := art.Program.WeightImage, 0
		for li, l := range m.Layers {
			rows, cols := weightMatrixDims(l)
			if rows == 0 {
				continue
			}
			data := qm.Weights[li].Data
			for ct := 0; ct < ceilDiv(cols, isa.MatrixDim); ct++ {
				for rt := 0; rt < ceilDiv(rows, isa.MatrixDim); rt++ {
					tile := img[off:][:isa.WeightTileBytes]
					for r := 0; r < isa.MatrixDim; r++ {
						for c := 0; c < isa.MatrixDim; c++ {
							var want int8
							if wr, wc := rt*isa.MatrixDim+r, ct*isa.MatrixDim+c; wr < rows && wc < cols {
								want = data[wr*cols+wc]
							}
							if got := tile[isa.WeightOffset(r, c)]; got != want {
								t.Fatalf("%s layer %s tile (%d, %d): weight (%d, %d) reads %d, want %d",
									m.Name, l.Name, rt, ct, r, c, got, want)
							}
						}
					}
					off += isa.WeightTileBytes
				}
			}
		}
		if off != len(img) {
			t.Fatalf("%s: the layers' tiles cover %d of the image's %d bytes", m.Name, off, len(img))
		}
	}
}
