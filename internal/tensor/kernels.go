package tensor

import (
	"fmt"

	"tpusim/internal/cpu"
)

// vector selects the AVX2 pass behind axpy where the host has it, and wide
// the AVX-512 register-blocked pass behind MatMulF32 where the host has
// AVX-512 F too (with the opmask and ZMM state saved, which either of cpu's
// AVX-512 flags implies). Both passes are bit-identical to the scalar loop,
// which is the portable path and the oracle the tests hold them to. Only
// useVector and useWide write them.
var (
	vector = cpu.AVX2
	wide   = vector && hasAVX512
)

// hasAVX512 is what gemmAVX512 needs of the host.
var hasAVX512 = cpu.AVX512VNNI || cpu.AVX512VBMI

// useVector turns the passes on, where the host has them, or off, and
// reports whether the AVX2 pass is on. It exists so that tests cover every
// path: this package's tests call it directly, other packages' tests go
// through systolic/kerneltest, which reaches it by linkname. The switch is
// process-wide.
func useVector(on bool) bool {
	vector = on && cpu.AVX2
	wide = vector && hasAVX512
	return vector
}

// useWide turns the AVX-512 pass on, where the host has it and the AVX2
// pass is on, or off, and reports whether it is on: an AVX2-only host's
// path is then testable on any AVX-512 one.
func useWide(on bool) bool {
	wide = on && vector && hasAVX512
	return wide
}

// axpy adds a*x[j] to dst[j] for every lane of dst; len(x) must be at least
// len(dst). Each product is rounded to float32 before the add: the
// conversion forbids fusing the two, so every GOARCH computes the same
// floats. Where the host has AVX2 it is one vector pass (VMULPS, then
// VADDPS) over whole groups of eight lanes, the same two roundings per lane.
func axpy(dst, x []float32, a float32) {
	x = x[:len(dst)]
	n := 0
	if vector && len(dst) >= 8 {
		n = len(dst) &^ 7
		axpyAVX2(&dst[0], &x[0], n, a)
	}
	for j := n; j < len(dst); j++ {
		dst[j] += float32(a * x[j])
	}
}

// fits reports an error unless shape s has no negative dimension and the n
// elements of an operand's data cover it: the kernels index by shape, so a
// short operand would panic part-way through.
func fits(op string, s Shape, n int) error {
	for _, d := range s {
		if d < 0 {
			return fmt.Errorf("tensor: %s operand shape %v has a negative dimension", op, s)
		}
	}
	if n < s.Elems() {
		return fmt.Errorf("tensor: %s operand has %d elements, shape %v needs %d", op, n, s, s.Elems())
	}
	return nil
}

// rowBlock is how many rows of the axpy pass share one pass over w: each
// weight row is read once per block, while the block's output rows stay in
// cache.
const rowBlock = 8

// The register-blocked pass (gemmAVX512) keeps a panelRows x panelCols
// block of out in registers while it walks panelDepth rows of w: one weight
// load serves every row of the block, and the block is loaded and stored
// once per depth panel, not once per product. The column panels run
// outermost, so a panel's weights come from memory once and from cache for
// every row block after the first.
const (
	panelRows  = 4
	panelCols  = 64
	panelDepth = 256
)

// MatMulF32 computes out = a (BxK) * w (KxN) in float32. It is the reference
// kernel the quantized systolic datapath is validated against, and the
// calibration pass of nn.QuantizeModel. Each output sums its rounded
// products in kk order, and a zero activation adds nothing, whatever the
// blocking or the path.
func MatMulF32(a, w *F32) (*F32, error) {
	if len(a.Shape) != 2 || len(w.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMulF32 needs rank-2 operands, got %v x %v", a.Shape, w.Shape)
	}
	if err := fits("MatMulF32", a.Shape, len(a.Data)); err != nil {
		return nil, err
	}
	if err := fits("MatMulF32", w.Shape, len(w.Data)); err != nil {
		return nil, err
	}
	b, k := a.Shape[0], a.Shape[1]
	k2, n := w.Shape[0], w.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: inner dimensions disagree: %d vs %d", k, k2)
	}
	out := NewF32(b, n)
	rows, cols := 0, 0
	if wide {
		rows, cols = b&^(panelRows-1), n&^(panelCols-1)
		for j0 := 0; j0 < cols; j0 += panelCols {
			for k0 := 0; k0 < k; k0 += panelDepth {
				depth := min(panelDepth, k-k0)
				for i0 := 0; i0 < rows; i0 += panelRows {
					gemmAVX512(&a.Data[i0*k+k0], k, &w.Data[k0*n+j0], n, &out.Data[i0*n+j0], n, depth)
				}
			}
		}
	}
	// The axpy pass does what the blocks leave: the columns right of them
	// in their rows, then every column of the rows below them.
	axpyRows(out.Data, a.Data, w.Data, 0, rows, cols, k, n)
	axpyRows(out.Data, a.Data, w.Data, rows, b, 0, k, n)
	return out, nil
}

// axpyRows adds a*w into rows [i0, i1) of out, columns [j0, n) only, one
// axpy per nonzero activation, in kk order.
func axpyRows(out, a, w []float32, i0, i1, j0, k, n int) {
	if j0 == n {
		return
	}
	for r0 := i0; r0 < i1; r0 += rowBlock {
		r1 := min(r0+rowBlock, i1)
		for kk := 0; kk < k; kk++ {
			wrow := w[kk*n+j0 : (kk+1)*n]
			for i := r0; i < r1; i++ {
				if av := a[i*k+kk]; av != 0 {
					axpy(out[i*n+j0:(i+1)*n], wrow, av)
				}
			}
		}
	}
}

// MatMulI8 computes the int32 accumulator result of an int8 matmul, the
// arithmetic the matrix unit performs: 8-bit multiplies summed into 32-bit
// accumulators.
func MatMulI8(a, w *I8) (*I32, error) {
	if len(a.Shape) != 2 || len(w.Shape) != 2 {
		return nil, fmt.Errorf("tensor: MatMulI8 needs rank-2 operands, got %v x %v", a.Shape, w.Shape)
	}
	if err := fits("MatMulI8", a.Shape, len(a.Data)); err != nil {
		return nil, err
	}
	if err := fits("MatMulI8", w.Shape, len(w.Data)); err != nil {
		return nil, err
	}
	b, k := a.Shape[0], a.Shape[1]
	k2, n := w.Shape[0], w.Shape[1]
	if k != k2 {
		return nil, fmt.Errorf("tensor: inner dimensions disagree: %d vs %d", k, k2)
	}
	out := NewI32(b, n)
	for i := 0; i < b; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := int32(arow[kk])
			if av == 0 {
				continue
			}
			wrow := w.Data[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * int32(wrow[j])
			}
		}
	}
	return out, nil
}

// Conv2DShape describes a 2-D convolution: input HxW with Cin channels,
// square kernel KxK, stride S, "same" zero padding, Cout output channels.
type Conv2DShape struct {
	H, W, Cin, K, S, Cout int
}

// OutH returns the output height under same-padding.
func (c Conv2DShape) OutH() int { return (c.H + c.S - 1) / c.S }

// OutW returns the output width under same-padding.
func (c Conv2DShape) OutW() int { return (c.W + c.S - 1) / c.S }

// Weights returns the weight count K*K*Cin*Cout.
func (c Conv2DShape) Weights() int { return c.K * c.K * c.Cin * c.Cout }

// MACsPerExample returns multiply-accumulates for one input example.
func (c Conv2DShape) MACsPerExample() int {
	return c.OutH() * c.OutW() * c.K * c.K * c.Cin * c.Cout
}

// convInput checks a convolution input against cs: shape [N, H, W, Cin] and
// the data to fill it.
func convInput(op string, in *F32, cs Conv2DShape) error {
	if len(in.Shape) != 4 || !in.Shape.Equal(Shape{in.Shape[0], cs.H, cs.W, cs.Cin}) {
		return fmt.Errorf("tensor: %s input shape %v, want [N %d %d %d]", op, in.Shape, cs.H, cs.W, cs.Cin)
	}
	return fits(op, in.Shape, len(in.Data))
}

// Conv2DF32 computes a same-padded 2-D convolution in float32. Input is
// [N, H, W, Cin], weights are [K, K, Cin, Cout], output is [N, OH, OW, Cout].
func Conv2DF32(in, w *F32, cs Conv2DShape) (*F32, error) {
	if err := convInput("conv", in, cs); err != nil {
		return nil, err
	}
	wantW := Shape{cs.K, cs.K, cs.Cin, cs.Cout}
	if !w.Shape.Equal(wantW) {
		return nil, fmt.Errorf("tensor: conv weight shape %v, want %v", w.Shape, wantW)
	}
	if err := fits("conv weight", w.Shape, len(w.Data)); err != nil {
		return nil, err
	}
	n := in.Shape[0]
	oh, ow := cs.OutH(), cs.OutW()
	out := NewF32(n, oh, ow, cs.Cout)
	pad := (cs.K - 1) / 2
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				orow := out.Data[((img*oh+oy)*ow+ox)*cs.Cout:][:cs.Cout]
				for ky := 0; ky < cs.K; ky++ {
					iy := oy*cs.S + ky - pad
					if iy < 0 || iy >= cs.H {
						continue
					}
					for kx := 0; kx < cs.K; kx++ {
						ix := ox*cs.S + kx - pad
						if ix < 0 || ix >= cs.W {
							continue
						}
						inBase := ((img*cs.H+iy)*cs.W + ix) * cs.Cin
						for ci := 0; ci < cs.Cin; ci++ {
							v := in.Data[inBase+ci]
							if v == 0 {
								continue
							}
							axpy(orow, w.Data[((ky*cs.K+kx)*cs.Cin+ci)*cs.Cout:], v)
						}
					}
				}
			}
		}
	}
	return out, nil
}

// MaxPool2DF32 computes max pooling with window P and stride P over a
// [N, H, W, C] tensor. The TPU performs pooling in the hardware adjacent to
// the activation unit.
func MaxPool2DF32(in *F32, p int) (*F32, error) {
	if len(in.Shape) != 4 {
		return nil, fmt.Errorf("tensor: pool input must be rank 4, got %v", in.Shape)
	}
	if err := fits("pool", in.Shape, len(in.Data)); err != nil {
		return nil, err
	}
	n, h, w, c := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	if p <= 0 || h%p != 0 || w%p != 0 {
		return nil, fmt.Errorf("tensor: pool window %d does not tile %dx%d", p, h, w)
	}
	oh, ow := h/p, w/p
	out := NewF32(n, oh, ow, c)
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := in.Data[((img*h+oy*p)*w+ox*p)*c+ch]
					for dy := 0; dy < p; dy++ {
						for dx := 0; dx < p; dx++ {
							v := in.Data[((img*h+oy*p+dy)*w+ox*p+dx)*c+ch]
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

// Im2Col lowers a same-padded convolution input [N,H,W,Cin] into the matrix
// [N*OH*OW, K*K*Cin] whose matmul with reshaped weights equals the
// convolution. This is exactly how the TPU's matrix unit "can perform either
// a matrix multiply or a convolution": convolution is a matmul over patches.
func Im2Col(in *F32, cs Conv2DShape) (*F32, error) {
	if err := convInput("im2col", in, cs); err != nil {
		return nil, err
	}
	n := in.Shape[0]
	oh, ow := cs.OutH(), cs.OutW()
	patch := cs.K * cs.K * cs.Cin
	out := NewF32(n*oh*ow, patch)
	pad := (cs.K - 1) / 2
	row := 0
	for img := 0; img < n; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				dst := out.Data[row*patch : (row+1)*patch]
				idx := 0
				for ky := 0; ky < cs.K; ky++ {
					iy := oy*cs.S + ky - pad
					for kx := 0; kx < cs.K; kx++ {
						ix := ox*cs.S + kx - pad
						if iy < 0 || iy >= cs.H || ix < 0 || ix >= cs.W {
							idx += cs.Cin
							continue
						}
						src := in.Data[((img*cs.H+iy)*cs.W+ix)*cs.Cin : ((img*cs.H+iy)*cs.W+ix+1)*cs.Cin]
						copy(dst[idx:idx+cs.Cin], src)
						idx += cs.Cin
					}
				}
				row++
			}
		}
	}
	return out, nil
}
