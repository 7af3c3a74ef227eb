package systolic

import (
	"math/rand"
	"runtime"
	"testing"

	"tpusim/internal/isa"
)

// randomTile fills a tile from the seed; density in [0,1] controls the
// fraction of nonzero weights.
func randomTile(seed int64, density float64) *Tile {
	rng := rand.New(rand.NewSource(seed))
	t := newTile()
	for r := 0; r < isa.MatrixDim; r++ {
		for c := 0; c < isa.MatrixDim; c++ {
			if rng.Float64() < density {
				t.set(r, c, int8(rng.Intn(256)-128))
			}
		}
	}
	return t
}

// randomBatch builds a flat B*256 activation batch; zeroFrac rows-worth of
// elements are forced to zero, exercising the zero-row skip (quantized
// post-ReLU activations are zero-heavy in practice).
func randomBatch(seed int64, b int, zeroFrac float64) []int8 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]int8, b*isa.MatrixDim)
	for i := range in {
		if rng.Float64() >= zeroFrac {
			in[i] = int8(rng.Intn(256) - 128)
		}
	}
	return in
}

func loadTile(t *testing.T, a *Array, tile *Tile) {
	t.Helper()
	if err := a.LoadShadow(tile); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMultiplyMatchesMulRow is the kernel-equivalence property: for random
// tiles and batches (including B = 0 and zero-heavy rows), the blocked
// batch kernel must agree bit for bit with the naive per-row reference.
func TestMultiplyMatchesMulRow(t *testing.T) {
	batches := []int{0, 1, 2, 7, 33, 64, 100}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		a := New()
		loadTile(t, a, randomTile(seed, []float64{1, 0.5, 0.05}[seed%3]))
		b := batches[int(seed)%len(batches)]
		zeroFrac := []float64{0, 0.3, 0.9, 1}[rng.Intn(4)]
		in := randomBatch(seed*17+1, b, zeroFrac)

		got, err := a.Multiply(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != b {
			t.Fatalf("seed %d: got %d rows, want %d", seed, len(got), b)
		}
		for i := 0; i < b; i++ {
			row := (*[isa.MatrixDim]int8)(in[i*isa.MatrixDim:])
			want, err := a.MulRow(row)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got[i] != *want {
				t.Fatalf("seed %d (B=%d, zeroFrac=%.1f): row %d diverges from MulRow reference",
					seed, b, zeroFrac, i)
			}
		}
	}
}

// TestMultiplyIntoParallelDeterministic: sharding the batch across any
// worker count must be bit-identical to the serial kernel under every kernel
// — each output row is owned by exactly one goroutine. The batches sit around
// the assembly kernels' four- and six-row groups, where chunks are rounded up
// to whole groups and the last one may be short.
func TestMultiplyIntoParallelDeterministic(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		a := New()
		loadTile(t, a, randomTile(50, 0.4))
		for _, b := range []int{1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 63, 64, 65, 66, 67, 251} {
			in := randomBatch(int64(b)*13+2, b, 0.5)
			ref := make([][isa.MatrixDim]int32, b)
			if err := a.MultiplyInto(in, ref, 1); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 2, 3, 4, 5, 8, runtime.GOMAXPROCS(0), b + 5} {
				out := make([][isa.MatrixDim]int32, b)
				// Poison the output to prove every row is overwritten.
				for i := range out {
					for c := range out[i] {
						out[i][c] = -1
					}
				}
				if err := a.MultiplyInto(in, out, workers); err != nil {
					t.Fatalf("B=%d workers=%d: %v", b, workers, err)
				}
				for i := range ref {
					if out[i] != ref[i] {
						t.Fatalf("B=%d workers=%d: row %d differs from serial result", b, workers, i)
					}
				}
			}
		}
	})
}

// TestMultiplyIntoRejectsBadShapes covers the error paths of the batched
// kernel.
func TestMultiplyIntoRejectsBadShapes(t *testing.T) {
	a := New()
	out := make([][isa.MatrixDim]int32, 2)
	if err := a.MultiplyInto(make([]int8, isa.MatrixDim), out, 1); err == nil {
		t.Error("no active tile: want error")
	}
	loadTile(t, a, randomTile(1, 1))
	if err := a.MultiplyInto(make([]int8, isa.MatrixDim+1), out, 1); err == nil {
		t.Error("ragged input length: want error")
	}
	if err := a.MultiplyInto(make([]int8, 4*isa.MatrixDim), out, 1); err == nil {
		t.Error("undersized output: want error")
	}
	if err := a.MultiplyStrided(make([]int8, 4*isa.MatrixDim), 0, out, 1, false); err == nil {
		t.Error("zero stride: want error")
	}
	if err := a.MultiplyStrided(make([]int8, 2*isa.MatrixDim+9), 2*isa.MatrixDim-8, out, 1, true); err == nil {
		t.Error("input one byte short of its last strided row: want error")
	}
}
