package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"sync"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/fault"
	"tpusim/internal/fixed"
	"tpusim/internal/integrity"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// wideModel is the benchmark's wide MLP — four 1024x1024 ReLU layers, a
// 4 MiB weight image — at batch 8.
func wideModel() (*nn.Model, *nn.Params, *tensor.F32) {
	m := &nn.Model{Name: "MLP-wide", Class: nn.MLP, Batch: 8, TimeSteps: 1}
	for i := 0; i < 4; i++ {
		m.Layers = append(m.Layers, nn.Layer{Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: 1024, Out: 1024, Act: fixed.ReLU})
	}
	in := tensor.NewF32(m.Batch, m.InputElems())
	in.FillRandom(43, 1)
	return m, nn.InitRandom(m, 42, 0.05), in
}

// liveHeap is the heap a collection right now cannot free.
func liveHeap() int64 {
	goruntime.GC()
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestServerWeightFootprint: a model warmed on two devices of a server
// holds its weights once. Both programs read one weight image, no cache
// entry keeps the quantized layer weights, and the second device's warm-up
// adds well under one image to the live heap. Cold compiles racing through
// RunAll share as sequential RunOn warm-ups do.
func TestServerWeightFootprint(t *testing.T) {
	m, p, in := wideModel()
	image := uint64(compiler.WeightFootprint(m, false))
	for _, warm := range []string{"RunAll", "RunOn"} {
		t.Run(warm, func(t *testing.T) {
			s, err := NewServer(2, tpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var out [2]*InferenceResult
			if warm == "RunAll" {
				res, err := s.RunAll([]Request{{m, p, in}, {m, p, in}})
				if err != nil {
					t.Fatal(err)
				}
				copy(out[:], res)
			} else {
				if out[0], err = s.RunOn(0, m, p, in); err != nil {
					t.Fatal(err)
				}
				before := liveHeap()
				if out[1], err = s.RunOn(1, m, p, in); err != nil {
					t.Fatal(err)
				}
				grew := liveHeap() - before
				t.Logf("heap growth from the second device: %d KiB (image %d KiB)", grew>>10, image>>10)
				if grew >= 1<<20 {
					t.Errorf("the second device's warm-up grew the live heap by %.1f MiB, want < 1", float64(grew)/(1<<20))
				}
			}
			if !equalOutputs(out[0].Output, out[1].Output) {
				t.Error("the two devices disagree on one input")
			}
			var progs [2][]int8
			for i, d := range s.drivers {
				e := d.cache[m.Name]
				if e.qm.Weights != nil {
					t.Errorf("device %d's cache entry keeps the quantized layer weights", i)
				}
				progs[i] = e.art.Program.WeightImage
				if got := d.Stats().WeightImageBytes; got != image {
					t.Errorf("device %d: WeightImageBytes = %d, want %d", i, got, image)
				}
			}
			if &progs[0][0] != &progs[1][0] {
				t.Error("the two devices' programs hold separate weight images")
			}
			if got := s.WeightImageBytes(); got != image {
				t.Errorf("server WeightImageBytes = %d, want one image (%d)", got, image)
			}
		})
	}
}

// TestWeightImageReleasedOnInvalidate: the server's table holds an image
// while any cached program uses it, and frees it with the last one.
func TestWeightImageReleasedOnInvalidate(t *testing.T) {
	s, err := NewServer(2, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, p, in := testModel()
	for dev := 0; dev < 2; dev++ {
		if _, err := s.RunOn(dev, m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	image := uint64(compiler.WeightFootprint(m, false))
	for dev, want := range []uint64{image, 0} {
		s.drivers[dev].Invalidate(m.Name)
		if got := s.WeightImageBytes(); got != want {
			t.Errorf("after invalidating device %d: server holds %d B of weight image, want %d", dev, got, want)
		}
	}
}

// TestWeightImagesConcurrentCompileAndInvalidate: cold compiles and
// invalidations of one model race across the devices of a server. Every run
// answers the reference, and once every device has dropped the model the
// table holds nothing (run with -race).
func TestWeightImagesConcurrentCompileAndInvalidate(t *testing.T) {
	s, err := NewServer(4, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, p, in := testModel()
	ref, err := s.RunOn(0, m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for dev := range s.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 12; round++ {
				r, err := s.RunOn(dev, m, p, in)
				if err != nil {
					t.Errorf("device %d round %d: %v", dev, round, err)
					return
				}
				if !equalOutputs(r.Output, ref.Output) {
					t.Errorf("device %d round %d: output differs from the reference", dev, round)
				}
				if round%3 == 2 {
					s.drivers[dev].Invalidate(m.Name)
				}
			}
		}()
	}
	wg.Wait()
	for _, d := range s.drivers {
		d.Invalidate(m.Name)
	}
	if got := s.WeightImageBytes(); got != 0 {
		t.Errorf("the server holds %d B of weight image with nothing cached", got)
	}
}

// TestFlipInvisibleToSharingDevice: two devices of a server at the detect
// tier share one model's weight image, and a weight flip on device 0 lands
// in a tile copy of device 0's alone. Device 1 keeps answering the clean
// reference, the shared golden bytes keep their CRC, and device 0 detects
// the flip until a scrub drops its copy.
func TestFlipInvisibleToSharingDevice(t *testing.T) {
	cfg := tpu.DefaultConfig()
	cfg.Integrity = tpu.IntegrityDetect
	s, err := NewServerWith(2, cfg, ServerOptions{Faults: &fault.Plan{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, p, in := testModel()
	ref, err := s.RunOn(0, m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOn(1, m, p, in); err != nil {
		t.Fatal(err)
	}
	e0, e1 := s.drivers[0].cache[m.Name], s.drivers[1].cache[m.Name]
	golden := e0.art.Program.WeightImage
	if &golden[0] != &e1.art.Program.WeightImage[0] {
		t.Fatal("the two devices' programs hold separate weight images")
	}
	crc := integrity.CRC(golden)

	if err := s.Injectors()[0].FlipOnce(fault.KindFlipWeights, 100, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunOn(0, m, p, in); !tpu.IsSDC(err) {
		t.Fatalf("device 0 ran over its weight flip: %v", err)
	}
	if n := e0.dev.WeightTileCopies(); n != 1 {
		t.Fatalf("device 0 holds %d tile copies after one flip, want 1", n)
	}
	r, err := s.RunOn(1, m, p, in)
	if err != nil || !equalOutputs(r.Output, ref.Output) {
		t.Fatalf("device 1 saw device 0's flip: err %v", err)
	}
	if integrity.CRC(golden) != crc || e1.dev.WeightTileCopies() != 0 {
		t.Fatal("device 0's flip wrote the shared golden image")
	}

	if _, repaired := s.Scrub(context.Background()); repaired != 1 {
		t.Fatalf("scrub repaired %d tiles, want 1", repaired)
	}
	if n := e0.dev.WeightTileCopies(); n != 0 {
		t.Fatalf("device 0 holds %d tile copies after the scrub, want 0", n)
	}
	if r, err := s.RunOn(0, m, p, in); err != nil || !equalOutputs(r.Output, ref.Output) {
		t.Fatalf("device 0 after the scrub: err %v, or output differs from the clean reference", err)
	}
}
