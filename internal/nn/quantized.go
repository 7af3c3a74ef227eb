package nn

import (
	"fmt"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

// QuantizedModel is the int8 form of a model: per-layer int8 weights, the
// quantization domain of every activation edge, and the activation-unit
// lookup tables. It is the artifact the User Space driver produces when it
// "compiles a model the first time it is evaluated ... writing the weight
// image into the TPU's weight memory" (Section 2), and it doubles as the
// bit-exact reference the TPU functional datapath is validated against.
type QuantizedModel struct {
	Model *Model
	// Weights[i] is layer i's quantized parameter tensor (nil if none).
	Weights []*tensor.I8
	// WScale[i] is the symmetric weight scale of layer i.
	WScale []float32
	// Edge[i] is the quantization domain of the activation entering layer
	// i; Edge[len(Layers)] is the output domain.
	Edge []fixed.Params
	// Pre[i] is the quantization domain of layer i's pre-activation
	// (accumulator values rescaled into int8 before the nonlinearity).
	Pre []fixed.Params
	// LUT[i] is layer i's activation table from Pre[i] to Edge[i+1].
	LUT []*fixed.LUT
}

// QuantizeModel calibrates and quantizes a model using a float32 calibration
// batch. The calibration run records the dynamic range of every activation
// edge and pre-activation, exactly how post-training quantization works in
// production inference stacks.
func QuantizeModel(m *Model, p *Params, calib *tensor.F32) (*QuantizedModel, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := len(m.Layers)
	qm := &QuantizedModel{
		Model:   m,
		Weights: make([]*tensor.I8, n),
		WScale:  make([]float32, n),
		Edge:    make([]fixed.Params, n+1),
		Pre:     make([]fixed.Params, n),
		LUT:     make([]*fixed.LUT, n),
	}

	// Calibration pass: track |max| at every edge and pre-activation across
	// all time steps.
	edgeMax := make([]float32, n+1)
	preMax := make([]float32, n)
	x := calib
	record := func(dst *float32, t *tensor.F32) {
		*dst = max(*dst, fixed.AbsMax(t.Data)) // neither is ever NaN
	}
	for step := 0; step < m.TimeSteps; step++ {
		record(&edgeMax[0], x)
		for i, l := range m.Layers {
			pre, err := preActivation(l, p.ByLayer[i], x)
			if err != nil {
				return nil, fmt.Errorf("nn: calibration layer %d: %w", i, err)
			}
			// pre is the layer's own new tensor: the activation overwrites
			// it once its range is recorded.
			record(&preMax[i], pre)
			applyAct(l, pre)
			record(&edgeMax[i+1], pre)
			x = pre
		}
	}

	for i := 0; i <= n; i++ {
		qm.Edge[i] = fixed.ChooseParams(edgeMax[i])
	}
	for i, l := range m.Layers {
		qm.Pre[i] = fixed.ChooseParams(preMax[i])
		qm.LUT[i] = fixed.NewLUT(l.Act, qm.Pre[i], qm.Edge[i+1])
		w := p.ByLayer[i]
		if w == nil {
			continue
		}
		wp := fixed.ChooseParamsFor(w.Data)
		qm.WScale[i] = wp.Scale
		qi := &tensor.I8{Shape: w.Shape.Clone(), Data: make([]int8, len(w.Data))}
		fixed.QuantizeInto(qi.Data, w.Data, wp)
		qm.Weights[i] = qi
	}
	return qm, nil
}

// preActivation computes a layer's output before the nonlinearity, used
// during calibration.
func preActivation(l Layer, w *tensor.F32, x *tensor.F32) (*tensor.F32, error) {
	noAct := l
	noAct.Act = fixed.Identity
	return forwardLayer(noAct, w, x)
}

// QuantizeInput converts a float batch into the model's int8 input domain.
func (qm *QuantizedModel) QuantizeInput(in *tensor.F32) *tensor.I8 {
	return qm.QuantizeInputInto(in, nil)
}

// QuantizeInputInto is QuantizeInput writing into dst, reallocating dst's
// storage only when it is nil or too small. It exists for steady-state
// inference loops (the runtime driver quantizes every batch into the same
// per-model scratch); dst must not be in use by a concurrent reader.
func (qm *QuantizedModel) QuantizeInputInto(in *tensor.F32, dst *tensor.I8) *tensor.I8 {
	if dst == nil {
		dst = &tensor.I8{}
	}
	if cap(dst.Data) >= len(in.Data) {
		dst.Data = dst.Data[:len(in.Data)]
	} else {
		dst.Data = make([]int8, len(in.Data))
	}
	if cap(dst.Shape) >= len(in.Shape) {
		dst.Shape = dst.Shape[:len(in.Shape)]
		copy(dst.Shape, in.Shape)
	} else {
		dst.Shape = in.Shape.Clone()
	}
	fixed.QuantizeInto(dst.Data, in.Data, qm.Edge[0])
	return dst
}

// DequantizeOutput converts the model's int8 output back to real values.
func (qm *QuantizedModel) DequantizeOutput(out *tensor.I8) *tensor.F32 {
	f := tensor.NewF32(out.Shape...)
	fixed.DequantizeInto(f.Data, out.Data, qm.Edge[len(qm.Model.Layers)])
	return f
}

// Forward runs the quantized reference inference: int8 multiplies into
// int32 accumulators, requantization, table-driven nonlinearities. The TPU
// functional datapath must match this bit for bit.
func (qm *QuantizedModel) Forward(in *tensor.I8) (*tensor.I8, error) {
	x := in
	for step := 0; step < qm.Model.TimeSteps; step++ {
		for i := range qm.Model.Layers {
			var err error
			x, err = qm.ForwardLayer(i, x)
			if err != nil {
				return nil, err
			}
		}
	}
	return x, nil
}

// ForwardLayer runs one quantized layer; exported so the TPU functional
// simulator can be checked layer by layer.
func (qm *QuantizedModel) ForwardLayer(i int, x *tensor.I8) (*tensor.I8, error) {
	l := qm.Model.Layers[i]
	switch l.Kind {
	case FC:
		flat, err := flatten2DI8(x, l.In)
		if err != nil {
			return nil, err
		}
		acc, err := tensor.MatMulI8(flat, qm.Weights[i])
		if err != nil {
			return nil, err
		}
		return qm.finish(i, acc), nil
	case Conv:
		acc, err := qm.convAcc(i, x)
		if err != nil {
			return nil, err
		}
		out := qm.finish(i, acc)
		out.Shape = tensor.Shape{x.Shape[0], l.Conv.OutH(), l.Conv.OutW(), l.Conv.Cout}
		return out, nil
	case Pool:
		return maxPoolI8(x, l.PoolWindow)
	case Vector:
		return qm.vectorLayer(i, x)
	default:
		return nil, fmt.Errorf("nn: quantized forward: unknown kind %d", int(l.Kind))
	}
}

// finish requantizes accumulators into the pre-activation domain and applies
// the activation LUT — the Activate instruction's datapath.
func (qm *QuantizedModel) finish(i int, acc *tensor.I32) *tensor.I8 {
	srcScale := qm.Edge[i].Scale * qm.WScale[i]
	out := &tensor.I8{Shape: acc.Shape.Clone(), Data: make([]int8, len(acc.Data))}
	lut := qm.LUT[i]
	for j, a := range acc.Data {
		pre := fixed.Requantize(a, srcScale, qm.Pre[i])
		out.Data[j] = lut.Lookup(pre)
	}
	return out
}

func (qm *QuantizedModel) convAcc(i int, x *tensor.I8) (*tensor.I32, error) {
	l := qm.Model.Layers[i]
	cs := l.Conv
	// Integer im2col: identical patch lowering to the float reference.
	xf := tensor.NewF32(x.Shape...)
	for j, v := range x.Data {
		xf.Data[j] = float32(v)
	}
	cols, err := tensor.Im2Col(xf, cs)
	if err != nil {
		return nil, err
	}
	colsI := &tensor.I8{Shape: cols.Shape.Clone(), Data: make([]int8, len(cols.Data))}
	for j, v := range cols.Data {
		colsI.Data[j] = int8(v)
	}
	w := qm.Weights[i]
	wmat := &tensor.I8{Shape: tensor.Shape{cs.K * cs.K * cs.Cin, cs.Cout}, Data: w.Data}
	return tensor.MatMulI8(colsI, wmat)
}

func (qm *QuantizedModel) vectorLayer(i int, x *tensor.I8) (*tensor.I8, error) {
	l := qm.Model.Layers[i]
	flat, err := flatten2DI8(x, l.Width)
	if err != nil {
		return nil, err
	}
	out := &tensor.I8{Shape: flat.Shape.Clone(), Data: make([]int8, len(flat.Data))}
	lut := qm.LUT[i]
	switch l.VOp {
	case VecScale:
		srcScale := qm.Edge[i].Scale * qm.WScale[i]
		for j, v := range flat.Data {
			acc := int32(v) * int32(qm.Weights[i].Data[j%l.Width])
			out.Data[j] = lut.Lookup(fixed.Requantize(acc, srcScale, qm.Pre[i]))
		}
	case VecBias:
		// Bias requantized into the input edge domain at quantization time
		// keeps the addition a plain int32 add.
		for j, v := range flat.Data {
			b := qm.Weights[i].Data[j%l.Width]
			br := qm.Edge[i].Quantize(qm.WScale[i] * float32(int32(b))) // bias in edge domain
			acc := fixed.SatAdd32(int32(v), int32(br))
			out.Data[j] = lut.Lookup(fixed.Requantize(acc, qm.Edge[i].Scale, qm.Pre[i]))
		}
	case VecActivation:
		for j, v := range flat.Data {
			out.Data[j] = lut.Lookup(fixed.Requantize(int32(v), qm.Edge[i].Scale, qm.Pre[i]))
		}
	}
	return out, nil
}

func flatten2DI8(x *tensor.I8, want int) (*tensor.I8, error) {
	if len(x.Shape) == 2 && x.Shape[1] == want {
		return x, nil
	}
	b := x.Shape[0]
	per := len(x.Data) / b
	if per != want {
		return nil, fmt.Errorf("nn: activation has %d elems per example, layer wants %d", per, want)
	}
	return &tensor.I8{Shape: tensor.Shape{b, want}, Data: x.Data}, nil
}

func maxPoolI8(x *tensor.I8, p int) (*tensor.I8, error) {
	if len(x.Shape) != 4 {
		return nil, fmt.Errorf("nn: pool input must be rank 4, got %v", x.Shape)
	}
	n, h, w, c := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%p != 0 || w%p != 0 {
		return nil, fmt.Errorf("nn: pool window %d does not tile %dx%d", p, h, w)
	}
	oh, ow := h/p, w/p
	out := tensor.NewI8(n, oh, ow, c)
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := x.Data[((img*h+oy*p)*w+ox*p)*c+ch]
					for dy := 0; dy < p; dy++ {
						for dx := 0; dx < p; dx++ {
							v := x.Data[((img*h+oy*p+dy)*w+ox*p+dx)*c+ch]
							if v > best {
								best = v
							}
						}
					}
					out.Data[((img*oh+oy)*ow+ox)*c+ch] = best
				}
			}
		}
	}
	return out, nil
}
