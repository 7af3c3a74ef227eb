package nn

import (
	"fmt"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

// TrainConfig drives SGD training.
type TrainConfig struct {
	// LearningRate is the SGD step size.
	LearningRate float32
	// Epochs is the number of full passes over the data.
	Epochs int
	// BatchSize is the minibatch size (0 = full batch).
	BatchSize int
}

// Train fits an FC-only model's parameters by minibatch SGD on mean squared
// error. The paper's deployment flow is exactly this split: "virtually all
// training today is in floating point" (on GPUs), then quantization turns
// the trained model into the 8-bit form the TPU serves. Train provides the
// float32 training half so examples can deploy genuinely learned weights.
func Train(m *Model, p *Params, inputs, targets *tensor.F32, cfg TrainConfig) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	for i, l := range m.Layers {
		if l.Kind != FC {
			return 0, fmt.Errorf("nn: Train supports FC-only models; layer %d is %s", i, l.Kind)
		}
		if l.Act == fixed.ReLU || l.Act == fixed.Sigmoid || l.Act == fixed.Tanh || l.Act == fixed.Identity {
			continue
		}
		return 0, fmt.Errorf("nn: Train cannot differentiate activation %s", l.Act)
	}
	if m.TimeSteps != 1 {
		return 0, fmt.Errorf("nn: Train supports feed-forward models only")
	}
	if cfg.LearningRate <= 0 {
		return 0, fmt.Errorf("nn: non-positive learning rate %v", cfg.LearningRate)
	}
	if cfg.Epochs <= 0 {
		return 0, fmt.Errorf("nn: non-positive epoch count %d", cfg.Epochs)
	}
	n := inputs.Shape[0]
	if targets.Shape[0] != n {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", n, targets.Shape[0])
	}
	batch := cfg.BatchSize
	if batch <= 0 || batch > n {
		batch = n
	}

	inDim := m.InputElems()
	outDim := m.Layers[len(m.Layers)-1].Out
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lastLoss = 0
		seen := 0
		for s := 0; s < n; s += batch {
			e := s + batch
			if e > n {
				e = n
			}
			x := &tensor.F32{Shape: tensor.Shape{e - s, inDim}, Data: inputs.Data[s*inDim : e*inDim]}
			y := &tensor.F32{Shape: tensor.Shape{e - s, outDim}, Data: targets.Data[s*outDim : e*outDim]}
			loss, err := sgdStep(m, p, x, y, cfg.LearningRate)
			if err != nil {
				return 0, err
			}
			lastLoss += loss * float64(e-s)
			seen += e - s
		}
		lastLoss /= float64(seen)
	}
	return lastLoss, nil
}

// sgdStep runs one forward/backward pass and updates weights in place,
// returning the batch's mean squared error before the update.
func sgdStep(m *Model, p *Params, x, y *tensor.F32, lr float32) (float64, error) {
	nLayers := len(m.Layers)
	// Forward, keeping each layer's input and the activation's derivative
	// at each pre-activation, which overwrites the pre-activation: each
	// nonlinearity is evaluated once, its float64 value giving both.
	ins := make([]*tensor.F32, nLayers)
	ders := make([]*tensor.F32, nLayers)
	cur := x
	for i, l := range m.Layers {
		ins[i] = cur
		pre, err := tensor.MatMulF32(cur, p.ByLayer[i])
		if err != nil {
			return 0, err
		}
		out := tensor.NewF32(pre.Shape...)
		for j, v := range pre.Data {
			y := l.Act.Apply(float64(v))
			out.Data[j] = float32(y)
			pre.Data[j] = actDerivative(l.Act, v, y)
		}
		ders[i] = pre
		cur = out
	}

	// Loss and output gradient: L = mean((out-y)^2), dL/dout = 2(out-y)/N.
	b := x.Shape[0]
	grad := cur.Clone()
	var loss float64
	scale := float32(2) / float32(len(cur.Data))
	for i := range grad.Data {
		d := cur.Data[i] - y.Data[i]
		loss += float64(d) * float64(d)
		grad.Data[i] = d * scale
	}
	loss /= float64(len(cur.Data))

	// Backward through each layer.
	for i := nLayers - 1; i >= 0; i-- {
		l := m.Layers[i]
		// dPre = dOut * act'(pre)
		for j := range grad.Data {
			grad.Data[j] *= ders[i].Data[j]
		}
		// dIn = dPre * W^T, against the pre-update weights.
		w := p.ByLayer[i]
		in := ins[i]
		var dIn *tensor.F32
		if i > 0 {
			dIn = tensor.NewF32(b, l.In)
			for bi := 0; bi < b; bi++ {
				for k := 0; k < l.In; k++ {
					var acc float32
					for o := 0; o < l.Out; o++ {
						acc += grad.Data[bi*l.Out+o] * w.Data[k*l.Out+o]
					}
					dIn.Data[bi*l.In+k] = acc
				}
			}
		}
		// W -= lr * in^T * dPre.
		for bi := 0; bi < b; bi++ {
			for k := 0; k < l.In; k++ {
				inV := in.Data[bi*l.In+k]
				if inV == 0 {
					continue
				}
				for o := 0; o < l.Out; o++ {
					w.Data[k*l.Out+o] -= lr * inV * grad.Data[bi*l.Out+o]
				}
			}
		}
		grad = dIn
	}
	return loss, nil
}

// actDerivative returns the nonlinearity's derivative at pre-activation v,
// given y, its value there as Apply computes it in float64: sigmoid's
// s(1-s) and tanh's 1-t² reuse the forward pass's exponential.
func actDerivative(a fixed.Nonlinearity, v float32, y float64) float32 {
	switch a {
	case fixed.ReLU:
		if v > 0 {
			return 1
		}
		return 0
	case fixed.Sigmoid:
		return float32(y * (1 - y))
	case fixed.Tanh:
		return float32(1 - y*y)
	default:
		return 1
	}
}
