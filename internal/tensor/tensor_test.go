package tensor

import (
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 0},
		{Shape{5}, 5},
		{Shape{3, 4}, 12},
		{Shape{2, 3, 4, 5}, 120},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("%v.Elems() = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqual(t *testing.T) {
	if !(Shape{2, 3}).Equal(Shape{2, 3}) {
		t.Error("equal shapes reported unequal")
	}
	if (Shape{2, 3}).Equal(Shape{3, 2}) {
		t.Error("permuted shapes reported equal")
	}
	if (Shape{2}).Equal(Shape{2, 1}) {
		t.Error("different ranks reported equal")
	}
}

func TestShapeCloneIndependent(t *testing.T) {
	s := Shape{2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 2 {
		t.Error("Clone shares backing array")
	}
}

func TestF32AtSet(t *testing.T) {
	m := NewF32(2, 3)
	m.Set(1, 2, 42)
	if got := m.At(1, 2); got != 42 {
		t.Errorf("At(1,2) = %v, want 42", got)
	}
	if got := m.Data[5]; got != 42 {
		t.Errorf("row-major layout broken: Data[5] = %v", got)
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a, b := NewF32(100), NewF32(100)
	a.FillRandom(7, 1)
	b.FillRandom(7, 1)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed should give identical data")
		}
	}
	c := NewF32(100)
	c.FillRandom(8, 1)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical data")
	}
}

func TestFillRandomAmplitude(t *testing.T) {
	m := NewF32(1000)
	m.FillRandom(3, 0.5)
	for _, v := range m.Data {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("value %v outside [-0.5, 0.5]", v)
		}
	}
}

func TestF32CloneIndependent(t *testing.T) {
	a := NewF32(2, 2)
	a.Set(0, 0, 1)
	b := a.Clone()
	b.Set(0, 0, 2)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares data")
	}
}

func TestI8AtSet(t *testing.T) {
	m := NewI8(2, 2)
	m.Set(0, 1, -7)
	if got := m.Data[1]; got != -7 {
		t.Errorf("row-major layout broken: Data[1] = %d, want -7", got)
	}
}

func TestMatMulF32Known(t *testing.T) {
	a := &F32{Shape: Shape{2, 2}, Data: []float32{1, 2, 3, 4}}
	w := &F32{Shape: Shape{2, 2}, Data: []float32{5, 6, 7, 8}}
	out, err := MatMulF32(a, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{19, 22, 43, 50}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestMatMulF32ShapeErrors(t *testing.T) {
	if _, err := MatMulF32(NewF32(2, 3), NewF32(4, 2)); err == nil {
		t.Error("mismatched inner dims accepted")
	}
	if _, err := MatMulF32(NewF32(2), NewF32(2, 2)); err == nil {
		t.Error("rank-1 operand accepted")
	}
}

func TestMatMulI8Known(t *testing.T) {
	a := &I8{Shape: Shape{1, 3}, Data: []int8{1, -2, 3}}
	w := &I8{Shape: Shape{3, 2}, Data: []int8{10, 20, 30, 40, 50, 60}}
	out, err := MatMulI8(a, w)
	if err != nil {
		t.Fatal(err)
	}
	// [1*10-2*30+3*50, 1*20-2*40+3*60] = [100, 120]
	if out.Data[0] != 100 || out.Data[1] != 120 {
		t.Errorf("got %v, want [100 120]", out.Data)
	}
}

func TestMatMulI8ShapeErrors(t *testing.T) {
	if _, err := MatMulI8(NewI8(2, 3), NewI8(4, 2)); err == nil {
		t.Error("mismatched inner dims accepted")
	}
}

func TestMatMulI8MatchesF32Property(t *testing.T) {
	// Int matmul on small values must agree exactly with float matmul.
	f := func(seed int64) bool {
		const b, k, n = 3, 5, 4
		ai := NewI8(b, k)
		wi := NewI8(k, n)
		af := NewF32(b, k)
		wf := NewF32(k, n)
		r := seed
		next := func() int8 {
			r = r*6364136223846793005 + 1442695040888963407
			return int8(r >> 56 & 0x0f) // small values, exact in f32
		}
		for i := range ai.Data {
			ai.Data[i] = next()
			af.Data[i] = float32(ai.Data[i])
		}
		for i := range wi.Data {
			wi.Data[i] = next()
			wf.Data[i] = float32(wi.Data[i])
		}
		oi, err1 := MatMulI8(ai, wi)
		of, err2 := MatMulF32(af, wf)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range oi.Data {
			if float32(oi.Data[i]) != of.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Set writes the element at 2-D index (i, j); the tensor must be rank 2.
func (t *F32) Set(i, j int, v float32) {
	t.Data[i*t.Shape[1]+j] = v
}

// Set writes the element at 2-D index (i, j); the tensor must be rank 2.
func (t *I8) Set(i, j int, v int8) {
	t.Data[i*t.Shape[1]+j] = v
}
