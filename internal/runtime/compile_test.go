package runtime

import (
	"context"
	"fmt"
	goruntime "runtime"
	"slices"
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

// TestServerWeightFootprint: a model warmed on the four devices of a server
// is quantized and compiled once. Every device runs the one program, the
// server keeps no quantized layer weights, and the second device's warm-up
// adds well under one image to the live heap. Cold runs racing through
// RunAll share as sequential RunOn warm-ups do.
func TestServerWeightFootprint(t *testing.T) {
	m, p, in := wideModel()
	image := uint64(compiler.WeightFootprint(m, false))
	for _, warm := range []string{"RunAll", "RunOn"} {
		t.Run(warm, func(t *testing.T) {
			s := newTestServer(t, 4, tpu.DefaultConfig())
			out := make([]*InferenceResult, s.Devices())
			if warm == "RunAll" {
				res, err := s.RunAll(slices.Repeat([]Request{{m, p, in}}, s.Devices()))
				if err != nil {
					t.Fatal(err)
				}
				copy(out, res)
			} else {
				for dev := range out {
					var before int64
					if dev == 1 {
						before = liveHeap()
					}
					var err error
					if out[dev], err = s.RunOn(dev, m, p, in); err != nil {
						t.Fatal(err)
					}
					if dev == 1 {
						grew := liveHeap() - before
						t.Logf("heap growth from the second device: %d KiB (image %d KiB)", grew>>10, image>>10)
						if grew >= 1<<20 {
							t.Errorf("the second device's warm-up grew the live heap by %.1f MiB, want < 1", float64(grew)/(1<<20))
						}
					}
				}
			}
			if n := compilations(s); n != 1 {
				t.Errorf("the server quantized and compiled the model %d times, want once", n)
			}
			pr := s.programs[m.Name]
			if pr.qm.Weights != nil {
				t.Error("the server's program keeps the quantized layer weights")
			}
			for dev, d := range s.drivers {
				if d.slots[m.Name].p.art.Program != pr.art.Program {
					t.Errorf("device %d runs a program of its own", dev)
				}
				if !equalOutputs(out[dev].Output, out[0].Output) {
					t.Errorf("devices %d and 0 disagree on one input", dev)
				}
			}
			if got := s.WeightImageBytes(); got != image {
				t.Errorf("server WeightImageBytes = %d, want one image (%d)", got, image)
			}
		})
	}
}

// TestServerDevicesAgree: a server's devices give one answer per input,
// whatever batch each saw first. On a fault-free 3-device server, input A
// served on device 0 and then B pinned to each device raise no health
// transition, and every device answers B alike. Two devices of a plain
// server whose first batches differ agree too.
func TestServerDevicesAgree(t *testing.T) {
	m, p, a := testModel()
	b := tensor.NewF32(4, 16)
	b.FillRandom(7, 3)

	t.Run("CrossCheck", func(t *testing.T) {
		s := newTestServer(t, 3, tpu.DefaultConfig())
		if _, err := s.RunOn(0, m, p, a); err != nil {
			t.Fatal(err)
		}
		var outs [3]*tensor.F32
		for dev := range outs {
			r, err := s.RunOn(dev, m, p, b)
			if err != nil {
				t.Fatalf("B on device %d: %v", dev, err)
			}
			outs[dev] = r.Output
		}
		for _, h := range s.Stats() {
			if h.Failures != 0 || h.State != Healthy {
				t.Errorf("%s failed %d runs (%s): %s", h.Device, h.Failures, h.State, h.LastError)
			}
		}
		for dev := range outs {
			if !equalOutputs(outs[dev], outs[0]) {
				t.Errorf("devices %d and 0 disagree on B", dev)
			}
		}
	})

	t.Run("FirstBatchesDiffer", func(t *testing.T) {
		s := newTestServer(t, 2, tpu.DefaultConfig())
		if _, err := s.RunOn(0, m, p, a); err != nil {
			t.Fatal(err)
		}
		r1, err := s.RunOn(1, m, p, b)
		if err != nil {
			t.Fatal(err)
		}
		r0, err := s.RunOn(0, m, p, b)
		if err != nil {
			t.Fatal(err)
		}
		if !equalOutputs(r0.Output, r1.Output) {
			t.Error("devices that first saw different batches disagree on one input")
		}
		if got, want := s.WeightImageBytes(), uint64(compiler.WeightFootprint(m, false)); got != want {
			t.Errorf("the server holds %d B of weight image, want one image (%d)", got, want)
		}
	})
}

// TestFlipInvisibleToSharingDevice: two devices of a server at the detect
// tier run one model's program, and a weight flip on device 0 lands in a
// tile copy of device 0's alone. Device 1 keeps answering the clean
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
	e0, e1 := s.drivers[0].slots[m.Name], s.drivers[1].slots[m.Name]
	if e0.p != e1.p {
		t.Fatal("the two devices run separate programs")
	}
	golden := e0.p.art.Program.WeightImage
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

// WeightImageBytes returns the host bytes of weight image the server holds:
// one image per compiled model, however many devices run it.
func (s *Server) WeightImageBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, p := range s.programs {
		n += p.weightRegion().size
	}
	return n
}

// weightRegion is the Weight Memory region p's program occupies.
func (p *program) weightRegion() region {
	prog := p.art.Program
	return region{base: prog.WeightBase, size: uint64(len(prog.WeightImage))}
}
