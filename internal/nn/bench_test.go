package nn

import (
	"fmt"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

// BenchmarkQuantizeModelWide is the quantize half of infer_batch's cold
// start: the float32 calibration pass of the wide model (four FC 1024 x
// 1024 ReLU layers at batch 64, a random calibration batch), the weights'
// ranges and their int8 images.
func BenchmarkQuantizeModelWide(b *testing.B) {
	m := &Model{Name: "MLP-wide", Class: MLP, Batch: 64, TimeSteps: 1}
	for i := 0; i < 4; i++ {
		m.Layers = append(m.Layers, Layer{Name: fmt.Sprintf("fc%d", i), Kind: FC, In: 1024, Out: 1024, Act: fixed.ReLU})
	}
	p := InitRandom(m, 1, 0.05)
	calib := tensor.NewF32(m.Batch, m.InputElems())
	calib.FillRandom(2, 1)
	for b.Loop() {
		if _, err := QuantizeModel(m, p, calib); err != nil {
			b.Fatal(err)
		}
	}
}
