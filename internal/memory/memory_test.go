package memory

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"tpusim/internal/isa"
)

func TestUnifiedBufferSize(t *testing.T) {
	ub := NewUnifiedBuffer()
	if ub.Size() != 24<<20 {
		t.Errorf("UB size = %d, want 24 MiB", ub.Size())
	}
}

func TestUnifiedBufferReadWrite(t *testing.T) {
	ub := NewUnifiedBuffer()
	src := []int8{1, -2, 3}
	if err := ub.Write(1000, src); err != nil {
		t.Fatal(err)
	}
	got, err := ub.Read(1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Errorf("got[%d] = %d, want %d", i, got[i], src[i])
		}
	}
}

func TestUnifiedBufferBounds(t *testing.T) {
	ub := NewUnifiedBuffer()
	if err := ub.Write(uint32(ub.Size()-1), []int8{1, 2}); err == nil {
		t.Error("overrun write accepted")
	}
	if _, err := ub.Read(uint32(ub.Size()-1), 2); err == nil {
		t.Error("overrun read accepted")
	}
	if _, err := ub.Read(0, -1); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := ub.View(uint32(ub.Size()), 1); err == nil {
		t.Error("overrun view accepted")
	}
}

func TestUnifiedBufferViewAliases(t *testing.T) {
	ub := NewUnifiedBuffer()
	if err := ub.Write(0, []int8{7}); err != nil {
		t.Fatal(err)
	}
	v, err := ub.View(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 7 {
		t.Errorf("view = %d", v[0])
	}
	// Read must copy: mutating it must not affect the buffer.
	r, _ := ub.Read(0, 1)
	r[0] = 9
	v2, _ := ub.View(0, 1)
	if v2[0] != 7 {
		t.Error("Read returned an aliasing slice")
	}
}

func TestAccumulatorsStoreLoad(t *testing.T) {
	a := NewAccumulators()
	var row [isa.MatrixDim]int32
	row[0], row[255] = 42, -7
	if err := a.StoreRows(100, [][isa.MatrixDim]int32{row}, false); err != nil {
		t.Fatal(err)
	}
	got, err := a.Load(100)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 42 || got[255] != -7 {
		t.Errorf("Load = %d, %d", got[0], got[255])
	}
}

func TestAccumulatorsAccumulate(t *testing.T) {
	a := NewAccumulators()
	var row [isa.MatrixDim]int32
	row[3] = 10
	if err := a.StoreRows(0, [][isa.MatrixDim]int32{row}, false); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreRows(0, [][isa.MatrixDim]int32{row}, true); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Load(0)
	if got[3] != 20 {
		t.Errorf("accumulated = %d, want 20", got[3])
	}
}

func TestAccumulatorsSaturate(t *testing.T) {
	a := NewAccumulators()
	var row [isa.MatrixDim]int32
	row[0] = math.MaxInt32
	a.StoreRows(0, [][isa.MatrixDim]int32{row}, false)
	row[0] = 1
	a.StoreRows(0, [][isa.MatrixDim]int32{row}, true)
	got, _ := a.Load(0)
	if got[0] != math.MaxInt32 {
		t.Errorf("accumulator wrapped: %d", got[0])
	}
}

func TestAccumulatorsBounds(t *testing.T) {
	a := NewAccumulators()
	var row [isa.MatrixDim]int32
	if err := a.StoreRows(4096, [][isa.MatrixDim]int32{row}, false); err == nil {
		t.Error("out-of-range store accepted")
	}
	if _, err := a.Load(-1); err == nil {
		t.Error("negative load accepted")
	}
	if err := a.Clear(4000, 200); err == nil {
		t.Error("overrun clear accepted")
	}
}

func TestAccumulatorsClear(t *testing.T) {
	a := NewAccumulators()
	var row [isa.MatrixDim]int32
	row[0] = 5
	a.StoreRows(10, [][isa.MatrixDim]int32{row}, false)
	if err := a.Clear(10, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := a.Load(10)
	if got[0] != 0 {
		t.Error("Clear left data behind")
	}
}

// fetchTile is the copying fetch the device used before tiles became views,
// kept as the oracle for what weight DRAM reads at a tile-aligned address: a
// fresh 64 KiB buffer holding image bytes where the image covers the tile and
// zeros (unwritten DRAM) beyond.
func (w *WeightMemory) fetchTile(addr uint64) []int8 {
	tile := make([]int8, isa.WeightTileBytes)
	if addr >= w.base && addr-w.base < uint64(len(w.image)) {
		copy(tile, w.image[addr-w.base:])
	}
	return tile
}

func TestWeightMemoryFetch(t *testing.T) {
	img := make([]int8, 2*isa.WeightTileBytes)
	img[isa.WeightTileBytes] = 99 // first byte of tile 1
	wm, err := NewWeightMemoryAt(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	tile := wm.fetchTile(isa.WeightTileBytes)
	if len(tile) != isa.WeightTileBytes || tile[0] != 99 {
		t.Errorf("tile[0] = %d, len %d", tile[0], len(tile))
	}
}

func TestWeightMemoryZeroFill(t *testing.T) {
	wm, _ := NewWeightMemoryAt(make([]int8, isa.WeightTileBytes), 0)
	tile := wm.fetchTile(isa.WeightTileBytes * 5) // beyond image
	for _, v := range tile {
		if v != 0 {
			t.Fatal("unwritten DRAM should read zero")
		}
	}
}

func TestWeightMemoryErrors(t *testing.T) {
	wm, _ := NewWeightMemoryAt(nil, 0)
	if _, ok := wm.TileView(100); ok {
		t.Error("unaligned fetch accepted")
	}
	if _, ok := wm.TileView(isa.WeightMemoryBytes); ok {
		t.Error("out-of-range fetch accepted")
	}
}

// TestTileFetchCyclesIsRidgePoint: at the production 700 MHz / 34 GB/s
// configuration, one tile fetch costs ~1350 cycles — the paper's roofline
// ridge point, because each cycle of fetch delay buys one 256-wide MAC row.
func TestTileFetchCyclesIsRidgePoint(t *testing.T) {
	c := TileFetchCycles(34, 700)
	if math.Abs(c-1350) > 10 {
		t.Errorf("tile fetch = %.0f cycles, want ~1350", c)
	}
}

// TestWeightMemoryTileView: a tile the image fully covers is handed out as
// a window of the image itself — same address, capacity clipped to the
// tile, later image writes visible — and everything else (a tile the image
// covers partly or not at all, below the base, unaligned, out of range) is
// declined.
func TestWeightMemoryTileView(t *testing.T) {
	const base = 7 * isa.WeightTileBytes
	img := make([]int8, 2*isa.WeightTileBytes+100) // two whole tiles and a stub
	for i := range img {
		img[i] = int8(i % 251)
	}
	wm, err := NewWeightMemoryAt(img, base)
	if err != nil {
		t.Fatal(err)
	}
	for tile := 0; tile < 2; tile++ {
		off := tile * isa.WeightTileBytes
		v, ok := wm.TileView(base + uint64(off))
		if !ok {
			t.Fatalf("covered tile %d declined", tile)
		}
		if &v[0] != &img[off] || len(v) != isa.WeightTileBytes || cap(v) != isa.WeightTileBytes {
			t.Fatalf("tile %d: view is not the image's bytes (len %d cap %d)", tile, len(v), cap(v))
		}
		if !slices.Equal(v, wm.fetchTile(base+uint64(off))) {
			t.Fatalf("tile %d: view differs from the copying oracle", tile)
		}
		img[off+9] ^= 0x40
		if v[9] != img[off+9] {
			t.Fatalf("tile %d: view does not see a later image write", tile)
		}
	}
	for _, addr := range []uint64{
		base + 2*isa.WeightTileBytes, // partly covered: 100 image bytes, the rest unwritten
		base + 3*isa.WeightTileBytes, // past the image
		base - isa.WeightTileBytes,   // below the base
		base + 256,                   // unaligned
		isa.WeightMemoryBytes,        // outside the DRAM
	} {
		if _, ok := wm.TileView(addr); ok {
			t.Errorf("TileView(%#x) handed out a view", addr)
		}
	}
	// The partly covered tile through the copying oracle: image bytes, then zeros.
	tile := wm.fetchTile(base + 2*isa.WeightTileBytes)
	for i, v := range tile {
		want := int8(0)
		if i < 100 {
			want = img[2*isa.WeightTileBytes+i]
		}
		if v != want {
			t.Fatalf("copied stub tile byte %d = %d, want %d", i, v, want)
		}
	}
}

func TestWeightMemoryAtBase(t *testing.T) {
	img := make([]int8, isa.WeightTileBytes)
	img[0] = 42
	base := uint64(isa.WeightTileBytes) * 100
	wm, err := NewWeightMemoryAt(img, base)
	if err != nil {
		t.Fatal(err)
	}
	// The image is visible at its base address...
	tile := wm.fetchTile(base)
	if tile[0] != 42 {
		t.Errorf("tile[0] = %d at base", tile[0])
	}
	// ...and addresses below the base read as zero (another model's region
	// or unwritten DRAM).
	below := wm.fetchTile(0)
	if below[0] != 0 {
		t.Error("address below base should read zero")
	}
}

func TestWeightMemoryAtErrors(t *testing.T) {
	if _, err := NewWeightMemoryAt(nil, 100); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := NewWeightMemoryAt(make([]int8, isa.WeightTileBytes),
		isa.WeightMemoryBytes-isa.WeightTileBytes/2); err == nil {
		t.Error("image overflowing 8 GiB accepted")
	}
}

// Clear zeroes a contiguous register range. Unbacked blocks already read as
// zero and stay unbacked.
func (a *Accumulators) Clear(idx, n int) error {
	if idx < 0 || n < 0 || idx+n > isa.AccumulatorCount {
		return fmt.Errorf("memory: accumulator clear [%d,%d) outside [0,%d)", idx, idx+n, isa.AccumulatorCount)
	}
	for i := idx; i < idx+n; i++ {
		if b := a.blocks[i/accBlock]; b != nil {
			b[i%accBlock] = zeroReg
			if a.parity != nil {
				a.parity[i] = 0
			}
		}
	}
	return nil
}

// Read copies n bytes at addr into a fresh slice.
func (u *UnifiedBuffer) Read(addr uint32, n int) ([]int8, error) {
	if n < 0 || int(addr)+n > u.Size() {
		return nil, fmt.Errorf("memory: UB read %#x+%d overruns %d-byte buffer", addr, n, u.Size())
	}
	u.extend(int(addr) + n)
	out := make([]int8, n)
	copy(out, u.data[addr:])
	return out, nil
}
