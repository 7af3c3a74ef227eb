package systolic

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"tpusim/internal/isa"
)

// TestLoadedTileEqualsFresh is the recycling contract: one Tile loaded with
// 60 seeded random byte images in sequence behaves, after each Load, exactly
// like TileFromBytes of the same bytes — each batched kernel at 1 and 4
// workers, MulRow (which reads W), the ABFT checksums (the cache Load must
// drop) and Bytes. The checksums are latched before the next Load, so a Load
// that kept them would check against the previous weights.
func TestLoadedTileEqualsFresh(t *testing.T) {
	eachKernel(t, testLoadedTileEqualsFresh)
}

func testLoadedTileEqualsFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	recycled := newTile()
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

// TestTileIsAView: a tile owns no weight storage — it is the buffer it was
// loaded from, by address, after TileFromBytes and after every Load — and an
// unloaded tile is refused by the array rather than multiplied against.
func TestTileIsAView(t *testing.T) {
	if size := unsafe.Sizeof(Tile{}); size > 256 {
		t.Fatalf("Tile is %d bytes; it must hold a view, not a 64 KiB array", size)
	}
	a, b := make([]int8, isa.WeightTileBytes), make([]int8, isa.WeightTileBytes)
	tile, err := TileFromBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := tile.Bytes(); &got[0] != &a[0] || len(got) != len(a) {
		t.Fatal("TileFromBytes copied the buffer")
	}
	if err := tile.Load(b); err != nil {
		t.Fatal(err)
	}
	if got := tile.Bytes(); &got[0] != &b[0] {
		t.Fatal("Load did not re-point the tile at the new buffer")
	}
	tile.Checksums()
	tile.Unload()
	for _, unloaded := range []*Tile{{}, tile} {
		if unloaded.Bytes() != nil || unloaded.abft.cs != nil {
			t.Fatal("an unloaded tile has bytes or checksums")
		}
		if err := New().LoadShadow(unloaded); err == nil {
			t.Fatal("the array accepted an unloaded tile")
		}
	}
}
