package compiler

import (
	"fmt"
	"runtime"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
)

// wideModel is the benchmark harness's infer_batch model, four FC 1024 x
// 1024 ReLU layers at batch 64, quantized on a random calibration batch.
func wideModel(tb testing.TB) *nn.QuantizedModel {
	tb.Helper()
	m := &nn.Model{Name: "MLP-wide", Class: nn.MLP, Batch: 64, TimeSteps: 1}
	for i := 0; i < 4; i++ {
		m.Layers = append(m.Layers, nn.Layer{Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: 1024, Out: 1024, Act: fixed.ReLU})
	}
	calib := tensor.NewF32(m.Batch, m.InputElems())
	calib.FillRandom(2, 1)
	qm, err := nn.QuantizeModel(m, nn.InitRandom(m, 1, 0.05), calib)
	if err != nil {
		tb.Fatal(err)
	}
	return qm
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCompileAllocs: a functional compile of the wide model allocates its
// weight image once, at exactly WeightFootprint bytes, and a shape-only
// compile (CompileShape, the timing simulator's path) allocates no image at
// all. Growing the image tile by tile allocated about three times the
// footprint.
func TestCompileAllocs(t *testing.T) {
	qm := wideModel(t)
	foot := WeightFootprint(qm.Model, false)
	opts := Options{Allocator: Reuse}
	// Warm the compiler's pools and shape hints, as a recompile finds them.
	if _, err := Compile(qm, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileShape(qm.Model, opts); err != nil {
		t.Fatal(err)
	}
	var art, shape *Artifact
	var err error
	full := allocated(func() { art, err = Compile(qm, opts) })
	if err != nil {
		t.Fatal(err)
	}
	bare := allocated(func() { shape, err = CompileShape(qm.Model, opts) })
	if err != nil {
		t.Fatal(err)
	}
	img := art.Program.WeightImage
	if int64(len(img)) != foot || int64(cap(img)) != foot {
		t.Errorf("weight image len %d cap %d, footprint %d", len(img), cap(img), foot)
	}
	host := int64(len(art.HostImage))
	t.Logf("functional compile %d B, shape-only %d B, weight image %d B, host image %d B", full, bare, foot, host)
	if extra := int64(full) - int64(bare) - host; extra < foot || extra >= foot+isa.WeightTileBytes {
		t.Errorf("a functional compile allocates %d B more than a shape-only one besides its host image, want the %d B weight image and less than a tile more", extra, foot)
	}
	if shape.Program.WeightImage != nil || bare >= isa.WeightTileBytes {
		t.Errorf("shape-only compile allocates %d B (image %v), want no image and less than a tile", bare, shape.Program.WeightImage != nil)
	}
}
