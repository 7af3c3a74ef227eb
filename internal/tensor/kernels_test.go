package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestConv2DShapeDerived(t *testing.T) {
	cs := Conv2DShape{H: 19, W: 19, Cin: 256, K: 3, S: 1, Cout: 256}
	if cs.OutH() != 19 || cs.OutW() != 19 {
		t.Errorf("same-padding stride-1 output = %dx%d, want 19x19", cs.OutH(), cs.OutW())
	}
	if got, want := cs.Weights(), 3*3*256*256; got != want {
		t.Errorf("Weights = %d, want %d", got, want)
	}
	if got, want := cs.MACsPerExample(), 19*19*3*3*256*256; got != want {
		t.Errorf("MACsPerExample = %d, want %d", got, want)
	}
	cs2 := Conv2DShape{H: 10, W: 10, Cin: 1, K: 3, S: 2, Cout: 1}
	if cs2.OutH() != 5 || cs2.OutW() != 5 {
		t.Errorf("stride-2 output = %dx%d, want 5x5", cs2.OutH(), cs2.OutW())
	}
}

func TestConv2DF32Identity(t *testing.T) {
	// 1x1 kernel with weight 1.0 must reproduce the input.
	cs := Conv2DShape{H: 4, W: 4, Cin: 1, K: 1, S: 1, Cout: 1}
	in := NewF32(1, 4, 4, 1)
	in.FillRandom(1, 1)
	w := NewF32(1, 1, 1, 1)
	w.Data[0] = 1
	out, err := Conv2DF32(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv diverged at %d: %v vs %v", i, out.Data[i], in.Data[i])
		}
	}
}

func TestConv2DF32Known3x3(t *testing.T) {
	// A 3x3 all-ones kernel over an all-ones 3x3 image sums the in-bounds
	// neighborhood: 4 at corners, 6 at edges, 9 at center.
	cs := Conv2DShape{H: 3, W: 3, Cin: 1, K: 3, S: 1, Cout: 1}
	in := NewF32(1, 3, 3, 1)
	for i := range in.Data {
		in.Data[i] = 1
	}
	w := NewF32(3, 3, 1, 1)
	for i := range w.Data {
		w.Data[i] = 1
	}
	out, err := Conv2DF32(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i, v := range want {
		if out.Data[i] != v {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestConv2DF32ShapeErrors(t *testing.T) {
	cs := Conv2DShape{H: 3, W: 3, Cin: 1, K: 3, S: 1, Cout: 1}
	if _, err := Conv2DF32(NewF32(1, 4, 4, 1), NewF32(3, 3, 1, 1), cs); err == nil {
		t.Error("wrong input shape accepted")
	}
	if _, err := Conv2DF32(NewF32(1, 3, 3, 1), NewF32(1, 1, 1, 1), cs); err == nil {
		t.Error("wrong weight shape accepted")
	}
}

func TestMaxPool2DF32(t *testing.T) {
	in := NewF32(1, 2, 2, 1)
	copy(in.Data, []float32{1, 5, 3, 2})
	out, err := MaxPool2DF32(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data[0] != 5 {
		t.Errorf("pool = %v, want 5", out.Data[0])
	}
	if !out.Shape.Equal(Shape{1, 1, 1, 1}) {
		t.Errorf("pool shape = %v", out.Shape)
	}
}

func TestMaxPool2DErrors(t *testing.T) {
	if _, err := MaxPool2DF32(NewF32(2, 2), 2); err == nil {
		t.Error("rank-2 input accepted")
	}
	if _, err := MaxPool2DF32(NewF32(1, 3, 3, 1), 2); err == nil {
		t.Error("non-tiling window accepted")
	}
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	// The im2col lowering (what the TPU's MatrixMultiply/Convolve
	// instruction implements) must agree with direct convolution.
	cs := Conv2DShape{H: 5, W: 5, Cin: 3, K: 3, S: 1, Cout: 4}
	in := NewF32(2, 5, 5, 3)
	in.FillRandom(11, 1)
	w := NewF32(3, 3, 3, 4)
	w.FillRandom(12, 1)

	direct, err := Conv2DF32(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}

	cols, err := Im2Col(in, cs)
	if err != nil {
		t.Fatal(err)
	}
	wmat := &F32{Shape: Shape{cs.K * cs.K * cs.Cin, cs.Cout}, Data: w.Data}
	viaMatmul, err := MatMulF32(cols, wmat)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaMatmul.Data) != len(direct.Data) {
		t.Fatalf("size mismatch: %d vs %d", len(viaMatmul.Data), len(direct.Data))
	}
	for i := range direct.Data {
		if d := math.Abs(float64(viaMatmul.Data[i] - direct.Data[i])); d > 1e-4 {
			t.Fatalf("im2col diverges from direct conv at %d: %v vs %v",
				i, viaMatmul.Data[i], direct.Data[i])
		}
	}
}

func TestIm2ColStride2(t *testing.T) {
	cs := Conv2DShape{H: 6, W: 6, Cin: 2, K: 3, S: 2, Cout: 3}
	in := NewF32(1, 6, 6, 2)
	in.FillRandom(5, 1)
	w := NewF32(3, 3, 2, 3)
	w.FillRandom(6, 1)
	direct, err := Conv2DF32(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := Im2Col(in, cs)
	if err != nil {
		t.Fatal(err)
	}
	wmat := &F32{Shape: Shape{cs.K * cs.K * cs.Cin, cs.Cout}, Data: w.Data}
	viaMatmul, err := MatMulF32(cols, wmat)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Data {
		if d := math.Abs(float64(viaMatmul.Data[i] - direct.Data[i])); d > 1e-4 {
			t.Fatalf("stride-2 im2col diverges at %d", i)
		}
	}
}

func TestIm2ColBadShape(t *testing.T) {
	cs := Conv2DShape{H: 5, W: 5, Cin: 3, K: 3, S: 1, Cout: 4}
	if _, err := Im2Col(NewF32(1, 4, 4, 3), cs); err == nil {
		t.Error("wrong shape accepted")
	}
}

// eachPath runs f with the vector passes off ("scalar"), then with the
// AVX2 pass on ("avx2") and with the AVX-512 pass on too ("avx512"), each
// where the host has it, and leaves both on.
func eachPath(t testing.TB, f func(path string)) {
	t.Helper()
	defer useVector(true)
	for _, p := range []struct {
		name         string
		vector, wide bool
	}{{"scalar", false, false}, {"avx2", true, false}, {"avx512", true, true}} {
		if useVector(p.vector) != p.vector || useWide(p.wide) != p.wide {
			continue
		}
		f(p.name)
	}
}

// sameFloat is bitwise equality, except that any NaN equals any NaN: the
// payload of a NaN is not part of the arithmetic the kernels define.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// matMulOracle is MatMulF32 as one row at a time, the loop the blocked and
// vector kernel must reproduce float for float: every output adds its
// rounded products in kk order and skips zero activations.
func matMulOracle(a, w *F32) *F32 {
	b, k, n := a.Shape[0], a.Shape[1], w.Shape[1]
	out := NewF32(b, n)
	for i := 0; i < b; i++ {
		for kk := 0; kk < k; kk++ {
			av := a.Data[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += float32(av * w.Data[kk*n+j])
			}
		}
	}
	return out
}

// sameAsOracle fails t unless MatMulF32 gives matMulOracle's floats on
// every path eachPath runs.
func sameAsOracle(t *testing.T, a, w *F32) {
	t.Helper()
	want := matMulOracle(a, w)
	eachPath(t, func(path string) {
		got, err := MatMulF32(a, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if !sameFloat(got.Data[i], want.Data[i]) {
				t.Fatalf("%s %v x %v: out[%d] = %v, oracle %v", path, a.Shape, w.Shape, i, got.Data[i], want.Data[i])
			}
		}
	})
}

// FuzzMatMulF32 holds MatMulF32, on every path, to matMulOracle bit for bit
// over any float32 bit patterns: b up to 24 rows (up to six of the AVX-512
// pass's row blocks, with one to three rows left over or none), k up to 600
// (two of its depth panels and a part), n up to 140 columns (two of its
// column panels, a group of eight lanes and a scalar tail), and a mask of
// zeroed activations. Seeds put zero and -0 activations against ±Inf and
// NaN weights — a product taken instead of skipped or masked would turn the
// output NaN — rows with none, half and all of their activations zero, as
// after a ReLU, sums that cancel to ±0, and inexact products that a fused
// multiply-add would round differently.
func FuzzMatMulF32(f *testing.F) {
	floats := func(vals ...float32) []byte {
		b := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	f.Add(floats(1, 2, 3, 4, 5, 6, 7), uint8(8), uint16(3), uint8(33), uint8(0))
	f.Add(floats(0, 1, inf, -inf, 2, nan, -3), uint8(9), uint16(4), uint8(16), uint8(0x55))
	f.Add(floats(inf, -inf, 0.5, 0), uint8(19), uint16(11), uint8(79), uint8(0xf0))
	f.Add(floats(negZero, 1, -1, 1e-45, 3e38, -3e38), uint8(12), uint16(5), uint8(40), uint8(0x0f))
	f.Add(floats(0.1, -0.7, 1.3, 2.9, -0.33, 0.61, 1e-3, 7.77, -5.5, 0.123, 3.3), uint8(9), uint16(7), uint8(24), uint8(0))
	f.Add(floats(0.1, 0.2, 0.3), uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add(floats(0.1, -0.7, 1.3, 2.9, -0.33, 0.61, 1e-3, 7.77), uint8(12), uint16(599), uint8(139), uint8(0))
	f.Add(floats(0.1, -0.7, 1.3, inf, -0.33, 0.61, nan, 7.77, -inf), uint8(8), uint16(257), uint8(64), uint8(0x55))
	f.Add(floats(nan, inf, -inf, 1.5), uint8(4), uint16(300), uint8(128), uint8(0xff))
	f.Add(floats(negZero, 2.5, inf, -0.25, nan), uint8(7), uint16(255), uint8(65), uint8(0x33))
	f.Fuzz(func(t *testing.T, raw []byte, b uint8, k uint16, n, zeros uint8) {
		words := make([]float32, min(len(raw)/4, 1024))
		for i := range words {
			words[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		word := func(i int) float32 {
			if len(words) == 0 {
				return 0
			}
			return words[i%len(words)]
		}
		a := NewF32(1+int(b%24), 1+int(k%600))
		w := NewF32(a.Shape[1], 1+int(n%140))
		for i := range a.Data {
			if zeros>>(i%8)&1 == 0 {
				a.Data[i] = word(i)
			}
		}
		for i := range w.Data {
			w.Data[i] = word(len(a.Data) + i)
		}
		sameAsOracle(t, a, w)
	})
}

// TestMatMulF32Edges holds MatMulF32 to matMulOracle, bit for bit on every
// path, at the edges of the AVX-512 pass's blocking — a row short of and
// past a row block, a column short of and past a column panel, a depth short
// of and past a depth panel — and at the wide MLP's calibration shape
// (64 x 1024 times 1024 x 1024). The activations are ReLU-sparse, none,
// half or all of them zero, every other zero a -0; in the second arm every
// seventh column of the weights holds one NaN, +Inf or -Inf, which turns an
// output NaN or infinite unless its row's activation there is zero.
func TestMatMulF32Edges(t *testing.T) {
	shapes := [][3]int{ // b, k, n
		{panelRows, panelDepth, panelCols},
		{panelRows - 1, 1, panelCols - 1},
		{panelRows + 1, panelDepth + 1, panelCols + 1},
		{2*panelRows + 3, 2*panelDepth + 5, 2*panelCols + 9},
		{3 * panelRows, panelDepth - 1, 3*panelCols + 8},
		{64, 1024, 1024},
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for _, s := range shapes {
		for _, zeroPct := range []int{0, 50, 100} {
			for _, special := range []bool{false, true} {
				r := rand.New(rand.NewSource(int64(s[0]*s[1]*s[2] + zeroPct)))
				a, w := NewF32(s[0], s[1]), NewF32(s[1], s[2])
				for i := range a.Data {
					switch {
					case r.Intn(100) >= zeroPct:
						a.Data[i] = r.Float32()*2 - 1
					case i%2 == 1:
						a.Data[i] = float32(math.Copysign(0, -1))
					}
				}
				for i := range w.Data {
					w.Data[i] = (r.Float32()*2 - 1) / 16
				}
				if special {
					for j := 3; j < s[2]; j += 7 {
						w.Data[r.Intn(s[1])*s[2]+j] = specials[j%3]
					}
				}
				sameAsOracle(t, a, w)
			}
		}
	}
}

// TestConv2DF32PathsAgree: the convolution's Cout run is the same pass, so
// both paths give the same floats, with a scalar tail and without.
func TestConv2DF32PathsAgree(t *testing.T) {
	for _, cs := range []Conv2DShape{
		{H: 5, W: 5, Cin: 3, K: 3, S: 1, Cout: 13},
		{H: 6, W: 6, Cin: 2, K: 3, S: 2, Cout: 40},
	} {
		in := NewF32(2, cs.H, cs.W, cs.Cin)
		in.FillRandom(3, 1)
		for i := 0; i < len(in.Data); i += 3 {
			in.Data[i] = 0
		}
		w := NewF32(cs.K, cs.K, cs.Cin, cs.Cout)
		w.FillRandom(4, 1)
		var outs []*F32
		eachPath(t, func(path string) {
			out, err := Conv2DF32(in, w, cs)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		})
		for _, out := range outs[1:] {
			for i := range out.Data {
				if !sameFloat(out.Data[i], outs[0].Data[i]) {
					t.Fatalf("%+v: paths differ at %d: %v vs %v", cs, i, out.Data[i], outs[0].Data[i])
				}
			}
		}
	}
}

// TestKernelsRejectMalformedOperands: an operand whose data is shorter than
// its shape, or whose shape is negative or of the wrong rank, is an error,
// not a panic part-way through the loops.
func TestKernelsRejectMalformedOperands(t *testing.T) {
	short := func(shape ...int) *F32 {
		x := NewF32(shape...)
		x.Data = x.Data[:len(x.Data)-1]
		return x
	}
	shortI8 := func(shape ...int) *I8 {
		x := NewI8(shape...)
		x.Data = x.Data[:len(x.Data)-1]
		return x
	}
	cs := Conv2DShape{H: 3, W: 3, Cin: 1, K: 3, S: 1, Cout: 2}
	for name, run := range map[string]func() error{
		"MatMulF32 short a":  func() error { _, err := MatMulF32(short(2, 3), NewF32(3, 2)); return err },
		"MatMulF32 short w":  func() error { _, err := MatMulF32(NewF32(2, 3), short(3, 2)); return err },
		"MatMulF32 negative": func() error { _, err := MatMulF32(&F32{Shape: Shape{-1, 2}}, NewF32(2, 2)); return err },
		"MatMulI8 short a":   func() error { _, err := MatMulI8(shortI8(2, 3), NewI8(3, 2)); return err },
		"MatMulI8 short w":   func() error { _, err := MatMulI8(NewI8(2, 3), shortI8(3, 2)); return err },
		"Conv2DF32 short in": func() error { _, err := Conv2DF32(short(1, 3, 3, 1), NewF32(3, 3, 1, 2), cs); return err },
		"Conv2DF32 short w":  func() error { _, err := Conv2DF32(NewF32(1, 3, 3, 1), short(3, 3, 1, 2), cs); return err },
		"Conv2DF32 rank 0":   func() error { _, err := Conv2DF32(&F32{}, NewF32(3, 3, 1, 2), cs); return err },
		"Im2Col short in":    func() error { _, err := Im2Col(short(1, 3, 3, 1), cs); return err },
		"Im2Col rank 0":      func() error { _, err := Im2Col(&F32{}, cs); return err },
		"MaxPool2DF32 short": func() error { _, err := MaxPool2DF32(short(1, 2, 2, 1), 2); return err },
	} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", name, r)
				}
			}()
			if err := run(); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
	}
}

// BenchmarkMatMulF32 is MatMulF32 on each path at two shapes: one
// calibration layer of the wide MLP ("calibration": a 64 x 1024 batch, 37%
// of its activations zero, as after a ReLU, times a 1024 x 1024 weight
// matrix) and one layer of MLP0's tiny serving variant ("tiny": 8 x 24 times
// 24 x 24).
func BenchmarkMatMulF32(b *testing.B) {
	for _, s := range []struct {
		name    string
		b, k, n int
	}{{"calibration", 64, 1024, 1024}, {"tiny", 8, 24, 24}} {
		a := NewF32(s.b, s.k)
		a.FillRandom(1, 1)
		r := rand.New(rand.NewSource(2))
		for i := range a.Data {
			if r.Intn(100) < 37 {
				a.Data[i] = 0
			}
		}
		w := NewF32(s.k, s.n)
		w.FillRandom(3, 0.05)
		eachPath(b, func(path string) {
			b.Run(s.name+"/"+path, func(b *testing.B) {
				for b.Loop() {
					if _, err := MatMulF32(a, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
