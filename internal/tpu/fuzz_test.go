package tpu

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/systolic/kerneltest"
	"tpusim/internal/tensor"
)

// A fuzzed model is a string of big-endian uint16 fields, each reduced
// modulo the range of what it chooses; past the end every field reads 0.
// shapeReader decodes them and shapeWriter encodes them, so seeds can be
// written as the models they stand for.
type shapeReader struct{ raw []byte }

// next returns the next field reduced to [0, n).
func (r *shapeReader) next(n int) int {
	if len(r.raw) < 2 {
		r.raw = nil
		return 0
	}
	v := int(binary.BigEndian.Uint16(r.raw))
	r.raw = r.raw[2:]
	return v % n
}

type shapeWriter struct{ raw []byte }

func (w *shapeWriter) put(v int) { w.raw = binary.BigEndian.AppendUint16(w.raw, uint16(v)) }

// The shape space the decoder covers: FC widths 1–600 either side of the
// 256-wide weight tile, batches 1–40 either side of the 16-row amx block,
// vector layers with every table, recurrent chains of 2–3 time steps, and
// conv stacks (H, W 3–10, Cin and Cout 1–300, K 1/3/5, S 1/2) with 2×2
// pools and an FC tail. convMACs caps a conv layer's multiply-accumulates so
// that one input stays fast on the portable rung.
const (
	shapeKinds = 3 // feed-forward, recurrent, conv
	maxWidth   = 600
	maxBatch   = 40
	maxLayers  = 3
	maxSteps   = 3
	maxConvB   = 20
	maxHW      = 8 // H and W are 3 + [0, maxHW)
	maxChan    = 300
	maxConvs   = 2
	convMACs   = 1 << 24
)

var (
	shapeActs = []fixed.Nonlinearity{fixed.Identity, fixed.ReLU, fixed.Sigmoid, fixed.Tanh}
	shapeVOps = []nn.VecOp{nn.VecActivation, nn.VecScale, nn.VecBias}
	shapeKs   = []int{1, 3, 5}
)

// decodeShape turns raw into a model the nn reference accepts.
func decodeShape(raw []byte) *nn.Model {
	r := &shapeReader{raw: raw}
	switch kind := r.next(shapeKinds); kind {
	case 2:
		return decodeConv(r)
	default:
		m := &nn.Model{Name: "fuzz", Class: nn.MLP, Batch: 1 + r.next(maxBatch), TimeSteps: 1}
		width := 1 + r.next(maxWidth)
		if kind == 1 {
			m.Class, m.TimeSteps = nn.LSTM, 2+r.next(maxSteps-1)
		}
		w := width
		for n := 1 + r.next(maxLayers); len(m.Layers) < n; {
			if r.next(3) < 2 {
				out := 1 + r.next(maxWidth)
				m.Layers = append(m.Layers, nn.Layer{Kind: nn.FC, In: w, Out: out, Act: shapeActs[r.next(len(shapeActs))]})
				w = out
			} else {
				vop := shapeVOps[r.next(len(shapeVOps))]
				m.Layers = append(m.Layers, nn.Layer{Kind: nn.Vector, Width: w, VOp: vop, Act: shapeActs[r.next(len(shapeActs))]})
			}
		}
		if m.TimeSteps > 1 && w != width {
			// A step's output is the next step's input.
			m.Layers = append(m.Layers, nn.Layer{Kind: nn.FC, In: w, Out: width, Act: fixed.Tanh})
		}
		return m
	}
}

func decodeConv(r *shapeReader) *nn.Model {
	m := &nn.Model{Name: "fuzz-conv", Class: nn.CNN, Batch: 1 + r.next(maxConvB), TimeSteps: 1}
	h, w, cin := 3+r.next(maxHW), 3+r.next(maxHW), 1+r.next(maxChan)
	for n := 1 + r.next(maxConvs); n > 0; n-- {
		c := tensor.Conv2DShape{H: h, W: w, Cin: cin, K: shapeKs[r.next(len(shapeKs))], S: 1 + r.next(2), Cout: 1 + r.next(maxChan)}
		rows := m.Batch * c.OutH() * c.OutW()
		c.Cout = max(1, min(c.Cout, convMACs/(rows*c.K*c.K*c.Cin)))
		m.Layers = append(m.Layers, nn.Layer{Kind: nn.Conv, Conv: c, Act: shapeActs[r.next(len(shapeActs))]})
		h, w, cin = c.OutH(), c.OutW(), c.Cout
		if r.next(2) == 1 && h%2 == 0 && w%2 == 0 {
			m.Layers = append(m.Layers, nn.Layer{Kind: nn.Pool, PoolWindow: 2})
			h, w = h/2, w/2
		}
	}
	if r.next(2) == 1 {
		m.Layers = append(m.Layers, nn.Layer{Kind: nn.FC, In: h * w * cin, Out: 1 + r.next(maxWidth), Act: shapeActs[r.next(len(shapeActs))]})
	}
	return m
}

// encodeShape is decodeShape's inverse for the feed-forward and conv models
// without pools it writes seeds for.
func encodeShape(m *nn.Model) []byte {
	w := &shapeWriter{}
	index := func(n int, vs ...int) {
		for i, v := range vs {
			if v == n {
				w.put(i)
				return
			}
		}
		panic("encodeShape: value outside the decoder's choices")
	}
	act := func(a fixed.Nonlinearity) { index(int(a), 0, 1, 2, 3) }
	if m.Class == nn.CNN {
		w.put(2)
		w.put(m.Batch - 1)
		c0 := m.Layers[0].Conv
		w.put(c0.H - 3)
		w.put(c0.W - 3)
		w.put(c0.Cin - 1)
		convs, tail := m.Layers, false
		if last := m.Layers[len(m.Layers)-1]; last.Kind == nn.FC {
			convs, tail = m.Layers[:len(m.Layers)-1], true
		}
		w.put(len(convs) - 1)
		for _, l := range convs {
			index(l.Conv.K, shapeKs...)
			w.put(l.Conv.S - 1)
			w.put(l.Conv.Cout - 1)
			act(l.Act)
			w.put(0) // no pool
		}
		if !tail {
			w.put(0)
			return w.raw
		}
		l := m.Layers[len(m.Layers)-1]
		w.put(1)
		w.put(l.Out - 1)
		act(l.Act)
		return w.raw
	}
	w.put(0)
	w.put(m.Batch - 1)
	w.put(m.Layers[0].In - 1)
	w.put(len(m.Layers) - 1)
	for _, l := range m.Layers {
		w.put(0) // FC
		w.put(l.Out - 1)
		act(l.Act)
	}
	return w.raw
}

// FuzzDeviceBitExact is TestDeviceBitExactOnRandomModels over a decoded
// shape space: the device's output must equal qm.Forward's bit for bit
// under every kernel rung (kerneltest.Each, the row passes with it), with
// both allocators, and both with the integrity checks off and at Detect,
// where every MatrixMultiply's partial sums pass through the ABFT check on
// their way to the accumulators. Every compiled program must also pass the
// accumulator write-before-read walk (accReadsWritten). The seeds are
// boundaryModels. A compile
// error passes only when it is the documented conv → FC alignment rule
// (an FC input stride the raw conv output leaves off a 256-byte row).
func FuzzDeviceBitExact(f *testing.F) {
	for _, m := range boundaryModels() {
		raw := encodeShape(m)
		got := decodeShape(raw)
		if got.Batch != m.Batch || got.TimeSteps != m.TimeSteps || !reflect.DeepEqual(got.Layers, m.Layers) {
			f.Fatalf("seed %s decodes to %+v", m.Name, got)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		m := decodeShape(raw)
		p := nn.InitRandom(m, 1, 0.2)
		in := tensor.NewF32(m.BatchInputShape()...)
		in.FillRandom(2, 1)
		qm, err := nn.QuantizeModel(m, p, in)
		if err != nil {
			t.Fatalf("%+v: quantize: %v", m, err)
		}
		qin := qm.QuantizeInput(in)
		want, err := qm.Forward(qin)
		if err != nil {
			t.Fatalf("%+v: reference: %v", m, err)
		}
		for _, alloc := range []compiler.Kind{compiler.Naive, compiler.Reuse} {
			art, err := compiler.Compile(qm, compiler.Options{Allocator: alloc})
			if err != nil {
				if strings.Contains(err.Error(), "not 256-byte aligned") {
					return
				}
				t.Fatalf("%+v: compile: %v", m, err)
			}
			if err := accReadsWritten(art.Program); err != nil {
				t.Fatalf("%+v (allocator %v): %v", m, alloc, err)
			}
			packed, err := compiler.PackInput(art, qin)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(alloc.String(), func(t *testing.T) {
				kerneltest.Each(t, func(t *testing.T) {
					for _, level := range []IntegrityLevel{IntegrityOff, IntegrityDetect} {
						cfg := DefaultConfig()
						cfg.Functional = true
						cfg.Parallelism = 1
						cfg.Integrity = level
						dev, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						host := append([]int8(nil), packed...)
						if _, err := dev.Run(art.Program, host); err != nil {
							t.Fatalf("%+v at %v: run: %v", m, level, err)
						}
						got, err := compiler.UnpackOutput(art, host)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want.Data {
							if got.Data[i] != want.Data[i] {
								t.Fatalf("%+v (allocator %v, integrity %v): output[%d] = %d, reference %d",
									m, alloc, level, i, got.Data[i], want.Data[i])
							}
						}
					}
				})
			})
		}
	})
}
