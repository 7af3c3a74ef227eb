package systolic

import (
	"fmt"
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

// BenchmarkMultiply sweeps batch size across every batched kernel this host
// can run, serial versus sharded across GOMAXPROCS workers, and the scalar
// oracle, which has no sharded form. All arms are bit-identical (see
// TestMultiplyIntoParallelDeterministic and FuzzMulRowEquivalence); only the
// wall clock differs. MB/s counts activation input bytes, so benchstat
// comparisons across kernels and batch sizes are one command:
//
//	go test ./internal/systolic -bench BenchmarkMultiply -count 10 | benchstat -
func BenchmarkMultiply(b *testing.B) {
	for _, batch := range []int{8, 64, 256, 1024} {
		a := benchArray(b)
		in := make([]int8, batch*isa.MatrixDim)
		for i := range in {
			in[i] = int8(i * 7)
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
				b.Run(fmt.Sprintf("B=%d/%s/%s", batch, k.name, bc.name), func(b *testing.B) {
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
		b.Run(fmt.Sprintf("B=%d/scalar/serial", batch), func(b *testing.B) {
			b.SetBytes(int64(len(in)))
			for i := 0; i < b.N; i++ {
				a.mulRangeScalar(in, out, 0, batch)
			}
		})
	}
}
