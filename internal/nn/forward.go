package nn

import (
	"fmt"
	"math"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

// Params holds the float32 parameters for each layer of a model, indexed by
// layer position. FC layers store [In, Out] matrices; Conv layers store
// [K, K, Cin, Cout]; VecScale/VecBias layers store [Width] vectors.
type Params struct {
	ByLayer []*tensor.F32
}

// InitRandom creates deterministic pseudorandom parameters for the model.
// amp bounds each parameter's magnitude; keeping amp modest keeps quantized
// accumulators far from saturation in tests.
func InitRandom(m *Model, seed int64, amp float32) *Params {
	p := &Params{ByLayer: make([]*tensor.F32, len(m.Layers))}
	for i, l := range m.Layers {
		var t *tensor.F32
		switch l.Kind {
		case FC:
			t = tensor.NewF32(l.In, l.Out)
		case Conv:
			t = tensor.NewF32(l.Conv.K, l.Conv.K, l.Conv.Cin, l.Conv.Cout)
		case Vector:
			if l.VOp == VecActivation {
				p.ByLayer[i] = nil
				continue
			}
			t = tensor.NewF32(l.Width)
		default:
			p.ByLayer[i] = nil
			continue
		}
		t.FillRandom(seed+int64(i)*7919, amp)
		p.ByLayer[i] = t
	}
	return p
}

// Forward runs the float32 reference inference for a batch. Input shape must
// be [B, InputElems] for FC/Vector-first models or [B, H, W, Cin] for
// conv-first models. Recurrent models run the whole layer chain TimeSteps
// times, feeding the output back as the next step's input.
func Forward(m *Model, p *Params, in *tensor.F32) (*tensor.F32, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(p.ByLayer) != len(m.Layers) {
		return nil, fmt.Errorf("nn: params cover %d layers, model has %d", len(p.ByLayer), len(m.Layers))
	}
	x := in
	for step := 0; step < m.TimeSteps; step++ {
		for i, l := range m.Layers {
			var err error
			x, err = forwardLayer(l, p.ByLayer[i], x)
			if err != nil {
				return nil, fmt.Errorf("nn: %s layer %d (%s): %w", m.Name, i, l.Kind, err)
			}
		}
	}
	return x, nil
}

func forwardLayer(l Layer, w *tensor.F32, x *tensor.F32) (*tensor.F32, error) {
	switch l.Kind {
	case FC:
		flat, err := flatten2D(x, l.In)
		if err != nil {
			return nil, err
		}
		out, err := tensor.MatMulF32(flat, w)
		if err != nil {
			return nil, err
		}
		applyAct(l, out)
		return out, nil
	case Conv:
		out, err := tensor.Conv2DF32(x, w, l.Conv)
		if err != nil {
			return nil, err
		}
		applyAct(l, out)
		return out, nil
	case Pool:
		return tensor.MaxPool2DF32(x, l.PoolWindow)
	case Vector:
		flat, err := flatten2D(x, l.Width)
		if err != nil {
			return nil, err
		}
		out := flat.Clone()
		switch l.VOp {
		case VecScale:
			for i := range out.Data {
				out.Data[i] *= w.Data[i%l.Width]
			}
		case VecBias:
			for i := range out.Data {
				out.Data[i] += w.Data[i%l.Width]
			}
		}
		applyAct(l, out)
		return out, nil
	default:
		return nil, fmt.Errorf("unknown layer kind %d", int(l.Kind))
	}
}

// flatten2D views x as [B, want], flattening higher ranks (the conv→FC
// transition in CNN1).
func flatten2D(x *tensor.F32, want int) (*tensor.F32, error) {
	if len(x.Shape) == 2 && x.Shape[1] == want {
		return x, nil
	}
	b := x.Shape[0]
	per := len(x.Data) / b
	if per != want {
		return nil, fmt.Errorf("activation has %d elems per example, layer wants %d", per, want)
	}
	return &tensor.F32{Shape: tensor.Shape{b, want}, Data: x.Data}, nil
}

// applyAct applies l's nonlinearity to t in place, each element as
// float32(l.Act.Apply(float64(v))). ReLU is that bit for bit without the
// round trip: a negative becomes +0, anything else stays, and a NaN comes out
// quiet, as converting it to float64 and back leaves it.
func applyAct(l Layer, t *tensor.F32) {
	switch l.Act {
	case fixed.Identity:
	case fixed.ReLU:
		// On the bits: above 0x7f800000 once the sign is cleared is a NaN;
		// of the rest, above 1<<31 is below zero. Both tests compile to
		// conditional moves, so a random sign costs no mispredicted branch.
		for i, v := range t.Data {
			b := math.Float32bits(v)
			if b&^(1<<31) > 0x7f800000 {
				b |= quietNaN
			}
			if b > 1<<31 && b < 0xff800001 {
				b = 0
			}
			t.Data[i] = math.Float32frombits(b)
		}
	default:
		for i, v := range t.Data {
			t.Data[i] = float32(l.Act.Apply(float64(v)))
		}
	}
}

// quietNaN is the float32 quiet bit, the top bit of a NaN's significand.
const quietNaN = 1 << 22
