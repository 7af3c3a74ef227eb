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

// forceKernel makes MultiplyInto run kernels[i] until the test ends.
func forceKernel(tb testing.TB, i int) {
	runUnder(i)
	tb.Cleanup(func() { runUnder(0) })
}

// eachKernel runs f as a subtest under every batched kernel this host can
// run, fastest first: "swar" always, above it "avx2", "avx512vnni" and "amx"
// where the CPU and the OS provide them.
func eachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for i, k := range kernels {
		forceKernel(t, i)
		t.Run(k.name, f)
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
	spread := spreadRows(in, oddStride)
	for i, k := range kernels {
		forceKernel(t, i)
		for i := range got {
			got[i][0] = -1 // every row must be overwritten
		}
		if err := a.MultiplyInto(in, got, 1); err != nil {
			t.Fatal(err)
		}
		compare(k.name)
		for i := range got {
			got[i][0] = -1
		}
		if err := a.MultiplyStrided(spread, oddStride, got, 1, false); err != nil {
			t.Fatal(err)
		}
		compare(k.name + " strided")
		// Accumulate from starting values out to the bound its caller
		// keeps, |v| < 2^31-2^22, both signs: the sums must be exact.
		const edge = 1<<31 - 1<<22 - 1
		for i := range got {
			for c := range got[i] {
				got[i][c] = [4]int32{edge, -edge, int32(i*c) - 1<<20, 0}[(i+c)%4]
			}
		}
		if err := a.MultiplyStrided(spread, oddStride, got, 1, true); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			for c := range got[i] {
				got[i][c] -= [4]int32{edge, -edge, int32(i*c) - 1<<20, 0}[(i+c)%4]
			}
		}
		compare(k.name + " strided add")
	}
}

// oddStride is the row stride the differential check also lays each batch
// out at: wider than a row and odd, so the rows start at every alignment.
const oddStride = isa.MatrixDim + 45

// spreadRows lays the rows of in out stride bytes apart, with nonzero bytes
// between them that a kernel must not read, and ends the slice at the last
// row's last byte.
func spreadRows(in []int8, stride int) []int8 {
	b := len(in) / isa.MatrixDim
	if b == 0 {
		return nil
	}
	out := make([]int8, (b-1)*stride+isa.MatrixDim)
	for i := range out {
		out[i] = 0x5a
	}
	for i := 0; i < b; i++ {
		copy(out[i*stride:], in[i*isa.MatrixDim:(i+1)*isa.MatrixDim])
	}
	return out
}

// groupBatches are the batch sizes around the AVX2 kernel's four-row group,
// the VNNI kernel's six-row group and a production-sized batch: full groups,
// every short last group, and a row or two more or fewer than a whole number
// of groups.
var groupBatches = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 63, 64, 65, 66, 67}

// TestSWAROverflowBoundary drives every lane of every kernel to its provable
// maximum: all 256 weights in a column at -128 and all 256 activations at
// -128. In the SWAR kernel each row's product is then 128*255 = 32640, each
// 16-bit lane's two-row sum 65280 — the last value below a 16-bit carry —
// and each widened 32-bit lane accumulates the full-rank maximum 256*32640 =
// 8,355,840. In the AVX2 kernel each VPMADDWD pair sum is
// 2*(-128)*(-128) = 2^15, its largest, 64 of them stack to 2^21 in a lane
// and a column's two lanes to 2^22. In the VNNI kernel the accumulators
// start at their largest bias, -128*256*(-128) = 2^22; against the weights at
// +127 every VPDPBUSD lane then adds its most negative sum, 4*255*(-128), 64
// times over, and against the weights at -128 the biased operand is zero and
// the bias alone is the answer. (FuzzMulRowEquivalence's saturated seeds add
// the activations at +127.) The true dot product 256*(-128)*(-128) =
// +4,194,304 and the most negative one (weights +127) must both come out
// exact, at every group shape.
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

// TestKernelsAgreeOnGroupShapes covers what the assembly wrappers' gathers
// have to get right, at every batch in groupBatches: an odd count of nonzero
// quads (swar's zero-padded last pair), a contraction row that is
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
				if i/4%2 == 1 || i/6%2 == 1 {
					continue // every other four-row and every other six-row group is all zero
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

// fillBlocks fills the 64-deep contraction blocks of every activation row
// whose bit is set in the low four bits of blocks with random values, a
// quarter of them bias, and leaves the others zero in every row — the blocks
// the AMX kernel does not multiply.
func fillBlocks(in []int8, blocks uint8, bias int8, rng *rand.Rand) {
	for i := 0; i < len(in); i += isa.MatrixDim {
		for kb := 0; kb < 4; kb++ {
			if blocks>>kb&1 == 0 {
				continue
			}
			for r := kb * 64; r < kb*64+64; r++ {
				in[i+r] = int8(rng.Intn(256) - 128)
				if rng.Intn(4) == 0 {
					in[i+r] = bias
				}
			}
		}
	}
}

// TestKernelsAgreeOnContractionBlocks covers what the AMX kernel has to get
// right besides the tile arithmetic: every batch from 1 to 80 rows — whole
// 16-row blocks, an odd block after the pairs, and the rows left over for the
// VNNI kernel — each with a different set of all-zero 64-deep contraction
// blocks (all 16 sets occur), and the operand extremes, where every column
// sums 256 products of -128 or 127 by -128 or 127.
func TestKernelsAgreeOnContractionBlocks(t *testing.T) {
	a := swarArray(t, randomTile(11, 1))
	for b := 1; b <= 80; b++ {
		in := make([]int8, b*isa.MatrixDim)
		fillBlocks(in, uint8(b%16), int8(-128+255*(b%2)), rand.New(rand.NewSource(int64(b))))
		checkKernels(t, a, in)
	}
	for _, w := range []int8{-128, 127} {
		tile := newTile()
		for i := range tile.w {
			tile.w[i] = w
		}
		a := swarArray(t, tile)
		for _, v := range []int8{-128, 127} {
			for _, b := range []int{16, 17, 48, 80} {
				in := make([]int8, b*isa.MatrixDim)
				for i := range in {
					in[i] = v
				}
				checkKernels(t, a, in)
				ref, err := a.MulRow((*[isa.MatrixDim]int8)(in))
				if err != nil {
					t.Fatal(err)
				}
				if want := 256 * int32(w) * int32(v); ref[0] != want {
					t.Fatalf("w=%d v=%d: MulRow reference %d, want %d", w, v, ref[0], want)
				}
			}
		}
	}
}

// TestSWARSingleRowTail exercises a lone nonzero contraction row — one quad,
// paired with a zero one in swar, one nonzero lane of the quad's operand in
// the assembly rungs — at both magnitude extremes.
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

// TestMultiplyIntoZeroAlloc is the kernel-side allocation gate: under every
// kernel the batched multiply allocates nothing, at any worker count that
// stays on the caller's goroutine — not even the first multiply against a
// tile never multiplied before, since every kernel reads the weight bytes
// where they lie and the assembly wrappers' gather scratch stays on the
// stack, dense rows or rows spread stride bytes apart. Each measured run loads
// a new tile, so a kernel that built anything per tile would show up here.
func TestMultiplyIntoZeroAlloc(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		w := make([]int8, isa.WeightTileBytes)
		for i := range w {
			w[i] = int8(i>>8 ^ i&0xff) // weight (r, c) = r^c
		}
		const batch = 21 // full groups and a short one, of four rows or of six
		in := make([]int8, batch*isa.MatrixDim)
		for i := range in {
			in[i] = int8(i * 7)
		}
		spread := spreadRows(in, oddStride)
		out := make([][isa.MatrixDim]int32, batch)
		const runs = 20
		tiles := make([]Tile, runs+1) // AllocsPerRun warms up with one more run
		a, next := New(), 0
		allocs := testing.AllocsPerRun(runs, func() {
			tile := &tiles[next]
			next++
			if err := tile.Load(w); err != nil {
				t.Fatal(err)
			}
			if err := a.LoadShadow(tile); err != nil {
				t.Fatal(err)
			}
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := a.MultiplyInto(in, out, 1); err != nil {
				t.Fatal(err)
			}
			if err := a.MultiplyStrided(spread, oddStride, out, 1, false); err != nil {
				t.Fatal(err)
			}
			if err := a.MultiplyStrided(spread, oddStride, out, 1, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("MultiplyInto and MultiplyStrided on a freshly loaded tile: %v allocs/op, want 0", allocs)
		}
	})
}

// The activation layouts FuzzMulRowEquivalence draws from.
const (
	// shapeMix: random weights and activations salted with the bias values,
	// zeros at the given sparsity, some activation rows zero throughout.
	shapeMix = iota
	// shapeQuadPositions: in every aligned quad of contraction rows, 1 +
	// sparsity%4 positions (the same in every activation row) are nonzero
	// and the rest zero; a third of the quads are zero throughout.
	shapeQuadPositions
	// shapeLastQuad: only contraction rows 252-255 are nonzero.
	shapeLastQuad
	// shapeSaturated: every weight is wBias and every activation aBias.
	shapeSaturated
	// shapeZeroBlocks: random activations, except that the 64-deep
	// contraction blocks whose bit in sparsity is clear are zero in every
	// row.
	shapeZeroBlocks
	numShapes
)

// FuzzMulRowEquivalence feeds random tiles and activation batches —
// including the ±128 extremes, whole zero rows, every group shape from 1 to
// 80 rows (the AMX kernel's 16-row blocks and the rows left over), the quad
// layouts the VNNI kernel's gather has to get right and the 64-deep
// contraction blocks the AMX kernel skips —
// through every batched kernel this host can run and the scalar oracle and
// checks every output word against the naive MulRow reference. The corpus
// seeds pin the boundary cases; the fuzzer mutates from there.
func FuzzMulRowEquivalence(f *testing.F) {
	f.Add(int64(1), int8(-128), int8(-128), uint8(0), uint8(2), uint8(shapeMix))
	f.Add(int64(2), int8(127), int8(-128), uint8(3), uint8(2), uint8(shapeMix))
	f.Add(int64(3), int8(-128), int8(127), uint8(128), uint8(2), uint8(shapeMix))
	f.Add(int64(4), int8(1), int8(-1), uint8(255), uint8(2), uint8(shapeMix))
	for i, b := range groupBatches {
		f.Add(int64(5+i), int8(-128), int8(-128), uint8(14*i), uint8(b-1), uint8(shapeMix))
	}
	for k := 0; k < 4; k++ { // k+1 nonzero positions per quad, short and full six-row groups
		f.Add(int64(30+k), int8(5), int8(-7), uint8(k), uint8(4+k), uint8(shapeQuadPositions))
	}
	f.Add(int64(40), int8(-128), int8(127), uint8(0), uint8(6), uint8(shapeLastQuad))
	f.Add(int64(41), int8(9), int8(0), uint8(0), uint8(12), uint8(shapeSaturated)) // an all-zero batch
	for i, w := range []int8{-128, 127} {                                          // the bias extremes
		for j, v := range []int8{-128, 127} {
			f.Add(int64(42+2*i+j), w, v, uint8(0), uint8(10+2*i+j), uint8(shapeSaturated))
		}
	}
	// Around the AMX kernel's 16-row blocks, each with its own set of
	// all-zero contraction blocks.
	for i, b := range []int{15, 16, 17, 32, 33, 48, 79, 80} {
		f.Add(int64(50+i), int8(-128), int8(127), uint8(i*5), uint8(b-1), uint8(shapeZeroBlocks))
	}
	f.Fuzz(func(t *testing.T, seed int64, wBias, aBias int8, sparsity, rows, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		shape %= numShapes
		tile := newTile()
		for r := 0; r < isa.MatrixDim; r++ {
			for c := 0; c < isa.MatrixDim; c++ {
				// Mix random weights with the bias value so mutated seeds
				// can saturate whole tiles at the extremes.
				if shape == shapeSaturated || rng.Intn(4) == 0 {
					tile.set(r, c, wBias)
				} else {
					tile.set(r, c, int8(rng.Intn(256)-128))
				}
			}
		}
		a := swarArray(t, tile)
		batch := 1 + int(rows)%80
		in := make([]int8, batch*isa.MatrixDim)
		nonzero := func() int8 { return int8(1 + rng.Intn(255)) } // never 0
		switch shape {
		case shapeMix:
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
		case shapeQuadPositions:
			for q := 0; q < isa.MatrixDim; q += 4 {
				if rng.Intn(3) == 0 {
					continue
				}
				for _, k := range rng.Perm(4)[:1+sparsity%4] {
					for i := 0; i < batch; i++ {
						in[i*isa.MatrixDim+q+k] = nonzero()
					}
				}
			}
		case shapeLastQuad:
			for i := 0; i < batch; i++ {
				for r := isa.MatrixDim - 4; r < isa.MatrixDim; r++ {
					in[i*isa.MatrixDim+r] = nonzero()
				}
			}
		case shapeSaturated:
			for i := range in {
				in[i] = aBias
			}
		case shapeZeroBlocks:
			fillBlocks(in, sparsity, aBias, rng)
		}
		checkKernels(t, a, in)
	})
}
