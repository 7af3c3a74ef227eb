package systolic

import (
	"math/rand"
	"slices"
	"testing"

	"tpusim/internal/isa"
)

// TestLoadedTileEqualsFresh is the recycling contract: one Tile loaded with
// 60 seeded random byte images in sequence behaves, after each Load, exactly
// like TileFromBytes of the same bytes — each batched kernel at 1 and 4
// workers (the SWAR one consumes the lane image Load must rebuild), MulRow
// (which reads W), the ABFT checksums (the other cache Load must drop) and
// Bytes. Both caches are latched before the next Load, so a Load that kept
// either would compute against the previous weights.
func TestLoadedTileEqualsFresh(t *testing.T) {
	eachKernel(t, testLoadedTileEqualsFresh)
}

func testLoadedTileEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	recycled := &Tile{}
	raw := make([]int8, isa.WeightTileBytes)
	const rows = 6
	in := make([]int8, rows*isa.MatrixDim)
	for round := 0; round < 60; round++ {
		for i := range raw {
			raw[i] = int8(rng.Intn(256))
		}
		for i := range in {
			in[i] = 0
			if rng.Intn(3) > 0 { // zero-heavy, like ReLU outputs
				in[i] = int8(rng.Intn(256))
			}
		}
		if err := recycled.Load(raw); err != nil {
			t.Fatal(err)
		}
		fresh, err := TileFromBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		ra, fa := swarArray(t, recycled), swarArray(t, fresh)
		for _, workers := range []int{1, 4} {
			got := make([][isa.MatrixDim]int32, rows)
			want := make([][isa.MatrixDim]int32, rows)
			if err := ra.MultiplyInto(in, got, workers); err != nil {
				t.Fatal(err)
			}
			if err := fa.MultiplyInto(in, want, workers); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: MultiplyInto(workers=%d) on the recycled tile differs from a fresh one", round, workers)
			}
		}
		row := (*[isa.MatrixDim]int8)(in)
		got, err := ra.MulRow(row)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fa.MulRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("round %d: MulRow on the recycled tile differs from a fresh one", round)
		}
		if *recycled.Checksums() != *fresh.Checksums() {
			t.Fatalf("round %d: recycled tile's ABFT checksums differ from a fresh one's", round)
		}
		if !slices.Equal(recycled.Bytes(), raw) {
			t.Fatalf("round %d: Bytes does not return what was loaded", round)
		}
	}
	if err := recycled.Load(raw[:100]); err == nil {
		t.Error("Load accepted a short image")
	}
}
