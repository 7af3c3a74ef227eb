// Package nn defines the neural-network layer graph shared by the float32
// reference implementation, the quantized reference, and the TPU compiler.
// The paper's three NN kinds (Section 1) map onto four layer operations:
// fully connected (MLPs and LSTM gate matmuls), convolution (CNNs),
// elementwise vector operations (LSTM internals), and pooling — matching the
// FC / Conv / Vector / Pool layer taxonomy of Table 1.
package nn

import (
	"fmt"

	"tpusim/internal/fixed"
	"tpusim/internal/tensor"
)

// Op is the layer operation class, mirroring the Table 1 columns.
type Op int

const (
	// FC is a fully connected layer: out = act(in · W).
	FC Op = iota
	// Conv is a 2-D convolution, executed on the matrix unit via im2col.
	Conv
	// Vector is an elementwise operation executed by the activation unit
	// (the LSTM "Vector" layers of Table 1).
	Vector
	// Pool is spatial max pooling, performed by the TPU's dedicated pooling
	// hardware next to the activation unit.
	Pool
)

// String names the operation as Table 1 does.
func (o Op) String() string {
	switch o {
	case FC:
		return "FC"
	case Conv:
		return "Conv"
	case Vector:
		return "Vector"
	case Pool:
		return "Pool"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// VecOp is the elementwise operation a Vector layer performs.
type VecOp int

const (
	// VecActivation applies the layer's nonlinearity elementwise.
	VecActivation VecOp = iota
	// VecScale multiplies elementwise by a learned vector (models LSTM
	// gating products in the linear-chain reference semantics).
	VecScale
	// VecBias adds a learned vector elementwise.
	VecBias
)

// Layer describes one layer. Only the fields for its Kind are meaningful.
type Layer struct {
	Name string
	Kind Op

	// FC fields.
	In, Out int

	// Conv fields.
	Conv tensor.Conv2DShape

	// Vector fields.
	Width int
	VOp   VecOp

	// Pool fields: square window, stride == window.
	PoolWindow int

	// Act is the nonlinearity fused onto FC/Conv outputs or applied by
	// VecActivation layers.
	Act fixed.Nonlinearity
}

// Weights returns the number of weight parameters (1 byte each once
// quantized, the unit of the paper's "ops per weight byte").
func (l Layer) Weights() int {
	switch l.Kind {
	case FC:
		return l.In * l.Out
	case Conv:
		return l.Conv.Weights()
	case Vector:
		if l.VOp == VecActivation {
			return 0
		}
		return l.Width
	default:
		return 0
	}
}

// MACsPerExample returns multiply-accumulate operations for one input
// example. For FC this equals the weight count; for conv it is weights times
// output positions, which is why CNNs have the high operational intensity
// of Table 1.
func (l Layer) MACsPerExample() int {
	switch l.Kind {
	case FC:
		return l.In * l.Out
	case Conv:
		return l.Conv.MACsPerExample()
	default:
		return 0
	}
}

// InputElems returns the activation element count one example consumes,
// where determinable from the layer alone (Pool depends on its input).
func (l Layer) InputElems() int {
	switch l.Kind {
	case FC:
		return l.In
	case Conv:
		return l.Conv.H * l.Conv.W * l.Conv.Cin
	case Vector:
		return l.Width
	default:
		return 0
	}
}

// Validate checks the layer's fields for its kind.
func (l Layer) Validate() error {
	switch l.Kind {
	case FC:
		if l.In <= 0 || l.Out <= 0 {
			return fmt.Errorf("nn: FC layer %q has dims %dx%d", l.Name, l.In, l.Out)
		}
	case Conv:
		c := l.Conv
		if c.H <= 0 || c.W <= 0 || c.Cin <= 0 || c.K <= 0 || c.S <= 0 || c.Cout <= 0 {
			return fmt.Errorf("nn: conv layer %q has invalid shape %+v", l.Name, c)
		}
	case Vector:
		if l.Width <= 0 {
			return fmt.Errorf("nn: vector layer %q has width %d", l.Name, l.Width)
		}
	case Pool:
		if l.PoolWindow <= 1 {
			return fmt.Errorf("nn: pool layer %q has window %d", l.Name, l.PoolWindow)
		}
	default:
		return fmt.Errorf("nn: layer %q has unknown kind %d", l.Name, int(l.Kind))
	}
	return nil
}
