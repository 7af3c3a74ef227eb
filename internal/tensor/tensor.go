// Package tensor provides the dense tensor types shared by the float32
// reference implementation and the quantized TPU datapath, plus the naive
// reference kernels (matmul, conv, pooling) the simulator is validated
// against.
package tensor

import (
	"fmt"
	"math/rand"
)

// Shape is a row-major tensor shape.
type Shape []int

// Elems returns the total element count, 0 for an empty shape.
func (s Shape) Elems() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes match exactly.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as e.g. "[200 2000]".
func (s Shape) String() string {
	return fmt.Sprint([]int(s))
}

// F32 is a row-major float32 tensor.
type F32 struct {
	Shape Shape
	Data  []float32
}

// NewF32 allocates a zero tensor of the given shape.
func NewF32(shape ...int) *F32 {
	s := Shape(shape)
	return &F32{Shape: s.Clone(), Data: make([]float32, s.Elems())}
}

// At returns the element at 2-D index (i, j); the tensor must be rank 2.
func (t *F32) At(i, j int) float32 {
	return t.Data[i*t.Shape[1]+j]
}

// FillRandom fills the tensor with deterministic pseudorandom values in
// [-amp, amp] using the provided seed.
func (t *F32) FillRandom(seed int64, amp float32) {
	r := rand.New(rand.NewSource(seed))
	for i := range t.Data {
		t.Data[i] = (r.Float32()*2 - 1) * amp
	}
}

// Clone deep-copies the tensor.
func (t *F32) Clone() *F32 {
	c := &F32{Shape: t.Shape.Clone(), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// I8 is a row-major int8 tensor (quantized values).
type I8 struct {
	Shape Shape
	Data  []int8
}

// NewI8 allocates a zero int8 tensor of the given shape.
func NewI8(shape ...int) *I8 {
	s := Shape(shape)
	return &I8{Shape: s.Clone(), Data: make([]int8, s.Elems())}
}

// I32 is a row-major int32 tensor (accumulator values).
type I32 struct {
	Shape Shape
	Data  []int32
}

// NewI32 allocates a zero int32 tensor of the given shape.
func NewI32(shape ...int) *I32 {
	s := Shape(shape)
	return &I32{Shape: s.Clone(), Data: make([]int32, s.Elems())}
}
