package systolic

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"tpusim/internal/isa"
)

func benchArray(b *testing.B) *Array {
	b.Helper()
	a := New()
	tile := newTile()
	for r := 0; r < isa.MatrixDim; r++ {
		for c := 0; c < isa.MatrixDim; c++ {
			tile.set(r, c, int8(r^c))
		}
	}
	a.LoadShadow(tile)
	a.Commit()
	return a
}

// BenchmarkMulRow measures one 256-wide systolic row (65,536 MACs) through
// the naive per-row reference path.
func BenchmarkMulRow(b *testing.B) {
	a := benchArray(b)
	var in [isa.MatrixDim]int8
	for i := range in {
		in[i] = int8(i)
	}
	b.SetBytes(isa.MatrixDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MulRow(&in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiplyBatch measures a 64-row matmul through the blocked
// batch kernel (kept for comparability with earlier runs).
func BenchmarkMultiplyBatch(b *testing.B) {
	a := benchArray(b)
	in := make([]int8, 64*isa.MatrixDim)
	for i := range in {
		in[i] = int8(i)
	}
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Multiply(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiply sweeps the shapes the repo runs across every batched
// kernel this host can run, serial versus sharded across GOMAXPROCS workers,
// and the scalar oracle, which has no sharded form: the tiny serving models'
// batches of 2, 8 and 16 rows, the wide MLP's 64, a tiny convolution's 128
// rows of a 36-deep contraction (K=36: the rest of each row is zero), and 256
// and 1024 rows. All arms are bit-identical (see
// TestMultiplyIntoParallelDeterministic and FuzzMulRowEquivalence); only the
// wall clock differs. MB/s counts activation input bytes, so benchstat
// comparisons across kernels and batch sizes are one command:
//
//	go test ./internal/systolic -bench BenchmarkMultiply -count 10 | benchstat -
func BenchmarkMultiply(b *testing.B) {
	for _, shape := range []struct{ batch, depth int }{
		{2, isa.MatrixDim}, {8, isa.MatrixDim}, {16, isa.MatrixDim}, {64, isa.MatrixDim},
		{128, 36}, {256, isa.MatrixDim}, {1024, isa.MatrixDim},
	} {
		batch, name := shape.batch, fmt.Sprintf("B=%d", shape.batch)
		if shape.depth < isa.MatrixDim {
			name += fmt.Sprintf(",K=%d", shape.depth)
		}
		a := benchArray(b)
		in := make([]int8, batch*isa.MatrixDim)
		for i := range in {
			if i%isa.MatrixDim < shape.depth {
				in[i] = int8(i * 7)
			}
		}
		out := make([][isa.MatrixDim]int32, batch)
		for ki, k := range kernels {
			for _, bc := range []struct {
				name    string
				workers int
			}{
				{"serial", 1},
				{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), 0},
			} {
				b.Run(fmt.Sprintf("%s/%s/%s", name, k.name, bc.name), func(b *testing.B) {
					forceKernel(b, ki)
					b.SetBytes(int64(len(in)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := a.MultiplyInto(in, out, bc.workers); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		b.Run(name+"/scalar/serial", func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				a.mulRangeScalar(in, out, 0, batch)
			}
		})
	}
}

// BenchmarkMultiplyStream is the wide MLP's matrix work as infer_batch's
// device run does it, under every batched kernel this host can run: 64
// distinct tiles (a 4 MiB weight image, more than the L2 holds), each loaded
// once per op and multiplied serially against 64 activation rows, the four
// row tiles of each output tile accumulated into it. One op is one batch
// through the four FC 1024 layers; MB/s counts activation input bytes.
func BenchmarkMultiplyStream(b *testing.B) {
	const tiles, batch, rowTiles = 64, 64, 4
	rng := rand.New(rand.NewSource(1))
	img := make([]int8, tiles*isa.WeightTileBytes)
	for i := range img {
		img[i] = int8(rng.Intn(256) - 128)
	}
	ts := make([]Tile, tiles)
	for k := range ts {
		if err := ts[k].Load(img[k*isa.WeightTileBytes:][:isa.WeightTileBytes]); err != nil {
			b.Fatal(err)
		}
	}
	var in [rowTiles][]int8
	for rt := range in {
		in[rt] = make([]int8, batch*isa.MatrixDim)
		for i := range in[rt] {
			if rng.Intn(2) == 0 { // about half zero, like ReLU outputs
				in[rt][i] = int8(rng.Intn(128))
			}
		}
	}
	out := make([][isa.MatrixDim]int32, batch)
	a := New()
	for ki, k := range kernels {
		b.Run(k.name, func(b *testing.B) {
			forceKernel(b, ki)
			b.SetBytes(tiles * batch * isa.MatrixDim)
			for b.Loop() {
				for k := range ts {
					if err := a.LoadShadow(&ts[k]); err != nil {
						b.Fatal(err)
					}
					if err := a.Commit(); err != nil {
						b.Fatal(err)
					}
					add := k%rowTiles != 0
					if err := a.MultiplyStrided(in[k%rowTiles], isa.MatrixDim, out, 1, add); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
