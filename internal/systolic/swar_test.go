package systolic

import (
	"fmt"
	"math/rand"
	"testing"

	"tpusim/internal/isa"
)

// swarArray builds an array with the given tile resident.
func swarArray(t testing.TB, tile *Tile) *Array {
	t.Helper()
	a := New()
	if err := a.LoadShadow(tile); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	return a
}

// forceKernel makes MultiplyInto run the portable kernel (or, with false,
// the host's native one) until the test ends.
func forceKernel(tb testing.TB, portable bool) {
	old := forcePortable
	forcePortable = portable
	tb.Cleanup(func() { forcePortable = old })
}

// eachKernel runs f as a subtest under every batched kernel this host can
// run: "swar" always, "avx2" where the CPU has it.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, portable := range []bool{false, true} {
		if !portable && native == &swar {
			continue // no assembly kernel on this host
		}
		forceKernel(t, portable)
		t.Run(Kernel(), f)
	}
}

// checkKernels is the differential check: the batch in, multiplied against
// a's tile, must come out the same from MulRow, the scalar oracle and every
// batched kernel this host can run.
func checkKernels(t *testing.T, a *Array, in []int8) {
	t.Helper()
	b := len(in) / isa.MatrixDim
	want := make([][isa.MatrixDim]int32, b)
	for i := range want {
		ref, err := a.MulRow((*[isa.MatrixDim]int8)(in[i*isa.MatrixDim:]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *ref
	}
	got := make([][isa.MatrixDim]int32, b)
	compare := func(name string) {
		t.Helper()
		for i := range want {
			for c := range want[i] {
				if got[i][c] != want[i][c] {
					t.Fatalf("B=%d row %d col %d: %s %d != MulRow %d", b, i, c, name, got[i][c], want[i][c])
				}
			}
		}
	}
	a.mulRangeScalar(in, got, 0, b)
	compare("scalar")
	for _, portable := range []bool{false, true} {
		forceKernel(t, portable)
		for i := range got {
			got[i][0] = -1 // every row must be overwritten
		}
		if err := a.MultiplyInto(in, got, 1); err != nil {
			t.Fatal(err)
		}
		compare(Kernel())
	}
}

// groupBatches are the batch sizes around the AVX2 kernel's four-row group
// and a production-sized batch: full groups, every short last group, and
// one row more or fewer than a whole number of groups.
var groupBatches = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}

// TestSWAROverflowBoundary drives every lane of both kernels to its provable
// maximum: all 256 weights in a column at -128 and all 256 activations at
// -128. In the SWAR kernel each 16-bit lane product is then 128*255 = 32640,
// each pair sum 65280 — the last value below a 16-bit carry — and each
// widened 32-bit lane accumulates the full-rank maximum 256*32640 =
// 8,355,840, the last point below a cross-lane carry at the widening step.
// In the AVX2 kernel each VPMADDWD pair sum is 2*(-128)*(-128) = 2^15, its
// largest, and 128 of them stack to 2^22. The true dot product
// 256*(-128)*(-128) = +4,194,304 and the most negative one (weights +127)
// must both come out exact, at every group shape.
func TestSWAROverflowBoundary(t *testing.T) {
	tile := newTile()
	for r := 0; r < isa.MatrixDim; r++ {
		for c := 0; c < isa.MatrixDim; c++ {
			if c%2 == 0 {
				tile.set(r, c, -128) // max positive product with v=-128
			} else {
				tile.set(r, c, 127) // max negative product with v=-128
			}
		}
	}
	a := swarArray(t, tile)
	for _, b := range groupBatches {
		in := make([]int8, b*isa.MatrixDim)
		for i := range in {
			in[i] = -128
		}
		checkKernels(t, a, in)
		ref, err := a.MulRow((*[isa.MatrixDim]int8)(in))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < isa.MatrixDim; c++ {
			want := int32(256 * 128 * 128) // 4,194,304
			if c%2 == 1 {
				want = -256 * 128 * 127
			}
			if ref[c] != want {
				t.Fatalf("col %d: MulRow reference %d, want %d", c, ref[c], want)
			}
		}
	}
}

// TestKernelsAgreeOnGroupShapes covers what the AVX2 wrapper's gather has to
// get right, at every batch in groupBatches: an odd count of nonzero
// contraction rows (the zero-padded pair tail), a contraction row that is
// nonzero in exactly one of a group's activation rows, all-zero activation
// rows inside a group, all-zero groups, and a dense batch.
func TestKernelsAgreeOnGroupShapes(t *testing.T) {
	a := swarArray(t, randomTile(7, 1))
	shapes := []struct {
		name string
		fill func(in []int8, b int, rng *rand.Rand)
	}{
		{"odd-nonzero-rows", func(in []int8, b int, rng *rand.Rand) {
			for _, r := range []int{0, 17, 255} { // three contraction rows, every activation row
				for i := 0; i < b; i++ {
					in[i*isa.MatrixDim+r] = int8(rng.Intn(255) - 127)
				}
			}
		}},
		{"one-row-of-the-group", func(in []int8, b int, rng *rand.Rand) {
			for r := 0; r < isa.MatrixDim; r++ { // contraction row r lives in activation row r mod b only
				in[(r%b)*isa.MatrixDim+r] = int8(1 + rng.Intn(127))
			}
		}},
		{"zero-rows", func(in []int8, b int, rng *rand.Rand) {
			for i := 0; i < b; i += 2 { // odd activation rows stay zero
				for r := 0; r < isa.MatrixDim; r++ {
					in[i*isa.MatrixDim+r] = int8(rng.Intn(256) - 128)
				}
			}
		}},
		{"zero-groups", func(in []int8, b int, rng *rand.Rand) {
			for i := 0; i < b; i++ {
				if i/4%2 == 1 {
					continue // every other four-row group is all zero
				}
				for r := 0; r < isa.MatrixDim; r += 3 {
					in[i*isa.MatrixDim+r] = int8(rng.Intn(256) - 128)
				}
			}
		}},
		{"all-zero", func([]int8, int, *rand.Rand) {}},
		{"dense", func(in []int8, b int, rng *rand.Rand) {
			for i := range in {
				in[i] = int8(rng.Intn(256) - 128)
			}
		}},
	}
	for _, s := range shapes {
		for _, b := range groupBatches {
			t.Run(fmt.Sprintf("%s/B=%d", s.name, b), func(t *testing.T) {
				in := make([]int8, b*isa.MatrixDim)
				s.fill(in, b, rand.New(rand.NewSource(int64(b))))
				checkKernels(t, a, in)
			})
		}
	}
}

// TestSWARSingleRowTail exercises the odd-n tail (a lone row in the pair
// loop) at both magnitude extremes.
func TestSWARSingleRowTail(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, v := range []int8{1, -1, 127, -128} {
			tile := newTile()
			for c := 0; c < isa.MatrixDim; c++ {
				tile.set(3, c, int8(c-128))
			}
			a := swarArray(t, tile)
			var in [isa.MatrixDim]int8
			in[3] = v // exactly one nonzero row: n = 1
			out := make([][isa.MatrixDim]int32, 1)
			if err := a.MultiplyInto(in[:], out, 1); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < isa.MatrixDim; c++ {
				if want := int32(v) * int32(int8(c-128)); out[0][c] != want {
					t.Fatalf("v=%d col %d: got %d, want %d", v, c, out[0][c], want)
				}
			}
		}
	})
}

// TestScalarKernelMatchesPacked pins the retained scalar oracle to the
// batched kernels over a random zero-heavy batch, so BenchmarkMultiply's
// arms always compute the same function.
func TestScalarKernelMatchesPacked(t *testing.T) {
	a := swarArray(t, randomTile(99, 1))
	checkKernels(t, a, randomBatch(100, 7, 0.33))
}

// TestMultiplyIntoZeroAlloc is the kernel-side allocation gate: the batched
// multiply must not allocate in steady state under either kernel (the SWAR
// lane image is latched on first use; the AVX2 wrapper's gather scratch
// stays on the stack), at any worker count that stays on the caller's
// goroutine.
func TestMultiplyIntoZeroAlloc(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		tile := newTile()
		for r := 0; r < isa.MatrixDim; r++ {
			for c := 0; c < isa.MatrixDim; c++ {
				tile.set(r, c, int8(r^c))
			}
		}
		a := swarArray(t, tile)
		const batch = 18 // four full groups and a short one
		in := make([]int8, batch*isa.MatrixDim)
		for i := range in {
			in[i] = int8(i * 7)
		}
		out := make([][isa.MatrixDim]int32, batch)
		if err := a.MultiplyInto(in, out, 1); err != nil { // latch the lane image
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := a.MultiplyInto(in, out, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("MultiplyInto steady state: %v allocs/op, want 0", allocs)
		}
	})
}

// TestAVX2BuildsNoLaneImage: the assembly kernel multiplies the weight bytes
// as loaded, so a tile that has only served it has no lane storage — the
// 64 KiB image is neither built nor allocated.
func TestAVX2BuildsNoLaneImage(t *testing.T) {
	if native == &swar {
		t.Skip("no AVX2 on this host")
	}
	forceKernel(t, false)
	tile := randomTile(3, 1)
	a := swarArray(t, tile)
	in := randomBatch(4, 9, 0.5)
	out := make([][isa.MatrixDim]int32, 9)
	for _, workers := range []int{1, 3} {
		if err := a.MultiplyInto(in, out, workers); err != nil {
			t.Fatal(err)
		}
	}
	if tile.lanes.words != nil {
		t.Fatal("a multiply on the AVX2 path built the SWAR lane image")
	}
}

// FuzzMulRowEquivalence feeds random tiles and activation batches —
// including the ±128 extremes, whole zero rows and every group shape from 1
// to 65 rows — through both batched kernels and the scalar oracle and checks
// every output word against the naive MulRow reference. The corpus seeds pin
// the boundary cases; the fuzzer mutates from there.
func FuzzMulRowEquivalence(f *testing.F) {
	f.Add(int64(1), int8(-128), int8(-128), uint8(0), uint8(2))
	f.Add(int64(2), int8(127), int8(-128), uint8(3), uint8(2))
	f.Add(int64(3), int8(-128), int8(127), uint8(128), uint8(2))
	f.Add(int64(4), int8(1), int8(-1), uint8(255), uint8(2))
	for i, b := range groupBatches {
		f.Add(int64(5+i), int8(-128), int8(-128), uint8(40*i), uint8(b-1))
	}
	f.Fuzz(func(t *testing.T, seed int64, wBias, aBias int8, sparsity, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		tile := newTile()
		for r := 0; r < isa.MatrixDim; r++ {
			for c := 0; c < isa.MatrixDim; c++ {
				// Mix random weights with the bias value so mutated seeds
				// can saturate whole tiles at the extremes.
				if rng.Intn(4) == 0 {
					tile.set(r, c, wBias)
				} else {
					tile.set(r, c, int8(rng.Intn(256)-128))
				}
			}
		}
		a := swarArray(t, tile)
		batch := 1 + int(rows)%65
		in := make([]int8, batch*isa.MatrixDim)
		for i := 0; i < batch; i++ {
			if rng.Intn(8) == 0 {
				continue // a whole zero activation row
			}
			for r := 0; r < isa.MatrixDim; r++ {
				switch {
				case rng.Intn(256) < int(sparsity):
				case rng.Intn(4) == 0:
					in[i*isa.MatrixDim+r] = aBias
				default:
					in[i*isa.MatrixDim+r] = int8(rng.Intn(256) - 128)
				}
			}
		}
		checkKernels(t, a, in)
	})
}
