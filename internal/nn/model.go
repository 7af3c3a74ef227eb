package nn

import (
	"fmt"

	"tpusim/internal/fixed"
)

// Class is the NN family of Section 1.
type Class int

const (
	// MLP is a multi-layer perceptron.
	MLP Class = iota
	// LSTM is a long short-term memory recurrent network.
	LSTM
	// CNN is a convolutional network.
	CNN
)

// String names the class.
func (c Class) String() string {
	switch c {
	case MLP:
		return "MLP"
	case LSTM:
		return "LSTM"
	case CNN:
		return "CNN"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Model is a linear chain of layers plus the workload parameters Table 1
// attaches to each benchmark.
type Model struct {
	Name  string
	Class Class
	// Batch is the production TPU batch size (Table 1 "TPU Batch Size").
	Batch int
	// TimeSteps is the number of recurrent steps an LSTM unrolls per
	// inference; 1 for feed-forward networks. Weights are reused across
	// steps ("The weights are reused across time steps").
	TimeSteps int
	Layers    []Layer
}

// Validate checks every layer and the model-level parameters.
func (m *Model) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("nn: model has no name")
	}
	if m.Batch <= 0 {
		return fmt.Errorf("nn: model %s has batch %d", m.Name, m.Batch)
	}
	if m.TimeSteps <= 0 {
		return fmt.Errorf("nn: model %s has %d time steps", m.Name, m.TimeSteps)
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model %s has no layers", m.Name)
	}
	for i := range m.Layers {
		if err := m.Layers[i].Validate(); err != nil {
			return fmt.Errorf("nn: model %s layer %d: %w", m.Name, i, err)
		}
	}
	return nil
}

// Weights returns total weight parameters (== weight bytes at int8).
func (m *Model) Weights() int {
	n := 0
	for _, l := range m.Layers {
		n += l.Weights()
	}
	return n
}

// MACsPerExample returns multiply-accumulates to run one example through
// all layers and time steps.
func (m *Model) MACsPerExample() int {
	n := 0
	for _, l := range m.Layers {
		n += l.MACsPerExample()
	}
	return n * m.TimeSteps
}

// MACsPerBatch returns multiply-accumulates for one production batch.
func (m *Model) MACsPerBatch() int64 {
	return int64(m.MACsPerExample()) * int64(m.Batch)
}

// OperationalIntensity returns MAC-ops per weight byte for one batch: the
// Table 1 "TPU Ops / Weight Byte" column. Weights are fetched once per
// batch (and once per batch across all time steps, since LSTM weights are
// reused across steps), so OI = MACs-per-batch / weight-bytes.
func (m *Model) OperationalIntensity() float64 {
	w := m.Weights()
	if w == 0 {
		return 0
	}
	return float64(m.MACsPerBatch()) / float64(w)
}

// LayerCounts returns the Table 1 layer census: FC, conv, vector, pool and
// total counts (per time step, as the paper counts them).
func (m *Model) LayerCounts() (fc, conv, vector, pool, total int) {
	for _, l := range m.Layers {
		switch l.Kind {
		case FC:
			fc++
		case Conv:
			conv++
		case Vector:
			vector++
		case Pool:
			pool++
		}
	}
	return fc, conv, vector, pool, len(m.Layers)
}

// Nonlinearities returns the distinct nonlinearity set in layer order,
// matching Table 1's "Nonlinear function" column.
func (m *Model) Nonlinearities() []fixed.Nonlinearity {
	seen := map[fixed.Nonlinearity]bool{}
	var out []fixed.Nonlinearity
	for _, l := range m.Layers {
		if l.Act == fixed.Identity {
			continue
		}
		if !seen[l.Act] {
			seen[l.Act] = true
			out = append(out, l.Act)
		}
	}
	return out
}

// InputElems returns the per-example input size of the first layer.
func (m *Model) InputElems() int {
	if len(m.Layers) == 0 {
		return 0
	}
	return m.Layers[0].InputElems()
}

// BatchInputShape is the full-batch input shape the runtime expects: images
// keep their (batch, H, W, Cin) geometry for quantization calibration;
// everything else is flat rows. Either way the row-major data layout is one
// example row after another, so request stacking is shape-agnostic.
func (m *Model) BatchInputShape() []int {
	if m.Class == CNN && len(m.Layers) > 0 && m.Layers[0].Kind == Conv {
		c := m.Layers[0].Conv
		return []int{m.Batch, c.H, c.W, c.Cin}
	}
	return []int{m.Batch, m.InputElems()}
}
