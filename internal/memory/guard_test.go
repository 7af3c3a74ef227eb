package memory

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"tpusim/internal/integrity"
	"tpusim/internal/isa"
)

// TestSidecarDetectsAndResyncs exercises the generic sidecar: seeded clean,
// a flip in any block is localized to exactly that block, and Resync after
// repair makes it clean again.
func TestSidecarDetectsAndResyncs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]int8, 1000) // last block short (block=256 -> 4 blocks)
	for i := range data {
		data[i] = int8(rng.Intn(256) - 128)
	}
	s, err := NewSidecar("test", len(data), 256)
	if err != nil {
		t.Fatal(err)
	}
	if s.Blocks() != 4 {
		t.Fatalf("blocks = %d, want 4", s.Blocks())
	}
	s.Seed(data)
	if bad := s.Verify(data); bad != nil {
		t.Fatalf("clean region flagged: %v", bad)
	}
	for trial := 0; trial < 32; trial++ {
		i := rng.Intn(len(data))
		orig := data[i]
		data[i] ^= 1 << uint(rng.Intn(8))
		bad := s.Verify(data)
		if len(bad) != 1 || bad[0] != i/256 {
			t.Fatalf("flip at %d: bad blocks %v, want [%d]", i, bad, i/256)
		}
		// Targeted verify of just the damaged byte finds it too.
		if got := s.VerifyRange(data, i, 1); len(got) != 1 || got[0] != i/256 {
			t.Fatalf("targeted verify at %d: %v", i, got)
		}
		data[i] = orig
		s.Resync(data, i/256)
		if bad := s.Verify(data); bad != nil {
			t.Fatalf("after repair: %v", bad)
		}
	}
}

// TestSidecarUpdateTracksWrites: legitimate writes through Update never
// trip the check, including writes spanning block boundaries.
func TestSidecarUpdateTracksWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]int8, 4096)
	s, err := NewSidecar("test", len(data), 256)
	if err != nil {
		t.Fatal(err)
	}
	s.Seed(data)
	for trial := 0; trial < 64; trial++ {
		addr := rng.Intn(len(data))
		n := rng.Intn(len(data) - addr)
		for i := addr; i < addr+n; i++ {
			data[i] = int8(rng.Intn(256) - 128)
		}
		s.Update(data, addr, n)
		if bad := s.Verify(data); bad != nil {
			t.Fatalf("trial %d: legitimate write [%d,%d) flagged: %v", trial, addr, addr+n, bad)
		}
	}
}

// TestUBGuard: writes keep the guard clean, FlipBit trips exactly the
// 256-byte row it lands in, and ResyncGuard accepts a repair.
func TestUBGuard(t *testing.T) {
	u := NewUnifiedBuffer()
	u.EnableGuard()
	u.EnableGuard() // idempotent
	if !u.Guarded() {
		t.Fatal("not guarded after EnableGuard")
	}
	src := make([]int8, 1000)
	for i := range src {
		src[i] = int8(i)
	}
	if err := u.Write(300, src); err != nil {
		t.Fatal(err)
	}
	if u.HighWater() != 1300 {
		t.Fatalf("high water %d, want 1300", u.HighWater())
	}
	if bad := u.VerifyGuard(0, u.Size()); bad != nil {
		t.Fatalf("clean UB flagged: %v", bad)
	}
	u.FlipBit(777, 3)
	bad := u.VerifyGuard(0, u.Size())
	if len(bad) != 1 || bad[0] != 777/256 {
		t.Fatalf("flip at 777: bad %v, want [%d]", bad, 777/256)
	}
	// Repair: rewrite the row via Write (which resyncs), then verify clean.
	row, err := u.Read(768, 256)
	if err != nil {
		t.Fatal(err)
	}
	row[777-768] = src[777-300] // restore golden byte
	if err := u.Write(768, row); err != nil {
		t.Fatal(err)
	}
	if bad := u.VerifyGuard(0, u.Size()); bad != nil {
		t.Fatalf("after repair: %v", bad)
	}
	// ResyncGuard accepts corruption as authoritative (repair-in-place path).
	u.FlipBit(100, 0)
	u.ResyncGuard(100, 1)
	if bad := u.VerifyGuard(0, u.Size()); bad != nil {
		t.Fatalf("after resync: %v", bad)
	}
}

// TestAccumulatorParity: stores keep parity current, FlipBit is detected
// and localized to the register, recomputation (a fresh Store) repairs.
func TestAccumulatorParity(t *testing.T) {
	a := NewAccumulators()
	a.EnableGuard()
	if !a.Guarded() {
		t.Fatal("not guarded")
	}
	rng := rand.New(rand.NewSource(3))
	var rows [4][isa.MatrixDim]int32
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = rng.Int31() - 1<<30
		}
	}
	if err := a.StoreRows(10, rows[:], false); err != nil {
		t.Fatal(err)
	}
	if err := a.Store(10, &rows[1], true); err != nil { // accumulate path
		t.Fatal(err)
	}
	if bad := a.VerifyParity(0, a.Count()); bad != nil {
		t.Fatalf("clean file flagged: %v", bad)
	}
	a.FlipBit(12, 37, 5)
	bad := a.VerifyParity(0, a.Count())
	if len(bad) != 1 || bad[0] != 12 {
		t.Fatalf("flip in reg 12: bad %v", bad)
	}
	if err := a.Store(12, &rows[2], false); err != nil { // recompute repairs
		t.Fatal(err)
	}
	if bad := a.VerifyParity(0, a.Count()); bad != nil {
		t.Fatalf("after recompute: %v", bad)
	}
	if err := a.Clear(0, a.Count()); err != nil {
		t.Fatal(err)
	}
	if bad := a.VerifyParity(0, a.Count()); bad != nil {
		t.Fatalf("after clear: %v", bad)
	}
}

// TestGuardedWeights: corruption persists across fetches, is detected per
// tile, and Scrub repairs from golden.
func TestGuardedWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	golden := make([]int8, 3*isa.WeightTileBytes)
	for i := range golden {
		golden[i] = int8(rng.Intn(256) - 128)
	}
	crc := integrity.CRC(golden)
	g, err := NewGuardedWeights(golden, 34, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != len(golden) || g.Base() != 0 {
		t.Fatalf("len %d base %d", g.Len(), g.Base())
	}
	for tile := 0; tile < 3; tile++ {
		if !g.VerifyTile(uint64(tile) * isa.WeightTileBytes) {
			t.Fatalf("clean tile %d flagged", tile)
		}
	}
	// Until something flips a bit the live image is the golden one: no copy,
	// and nothing to repair.
	if view, _ := g.TileView(isa.WeightTileBytes); &view[0] != &golden[isa.WeightTileBytes] {
		t.Fatal("an unflipped weight memory copied its image")
	}
	if scanned, repaired := g.Scrub(); scanned != 3 || repaired != 0 || g.RepairTile(0) {
		t.Fatalf("an unflipped weight memory: scrub scanned %d repaired %d, or RepairTile found a corrupt tile", scanned, repaired)
	}
	// Flip a bit in tile 1; it persists, is detected only there, and the
	// fetched tile differs from golden.
	off := uint64(isa.WeightTileBytes + 1234)
	g.FlipBit(off, 2)
	if g.VerifyTile(0) == false || g.VerifyTile(2*isa.WeightTileBytes) == false {
		t.Fatal("clean tiles flagged after flip in tile 1")
	}
	if g.VerifyTile(isa.WeightTileBytes) {
		t.Fatal("flip in tile 1 undetected")
	}
	// The fetch of the upset tile is a view of its copy, never the golden
	// bytes; after the scrub it is the golden window again.
	view, ok := g.TileView(isa.WeightTileBytes)
	if !ok || g.copies[1] == nil || &view[0] != &g.copies[1][0] || g.Copies() != 1 {
		t.Fatalf("TileView: ok %v, not the upset tile's copy (%d copies)", ok, g.Copies())
	}
	if view[1234] == golden[isa.WeightTileBytes+1234] {
		t.Fatal("corruption not visible in fetch")
	}
	scanned, repaired := g.Scrub()
	if scanned != 3 || repaired != 1 {
		t.Fatalf("scrub scanned %d repaired %d, want 3/1", scanned, repaired)
	}
	if view, _ := g.TileView(isa.WeightTileBytes); &view[0] != &golden[isa.WeightTileBytes] || g.Copies() != 0 {
		t.Fatalf("the scrubbed tile is not golden again (%d copies)", g.Copies())
	}
	if _, repaired := g.Scrub(); repaired != 0 {
		t.Fatalf("second scrub repaired %d", repaired)
	}
	// RepairTile on a targeted corrupt tile.
	g.FlipBit(100, 7)
	if !g.RepairTile(0) {
		t.Fatal("RepairTile found nothing")
	}
	if g.RepairTile(0) {
		t.Fatal("RepairTile repaired a clean tile")
	}
	// Out-of-image addresses are clean and unrepairable.
	if !g.VerifyTile(1 << 30) {
		t.Fatal("out-of-image tile flagged")
	}
	if g.RepairTile(1 << 30) {
		t.Fatal("out-of-image repair claimed success")
	}
	// The golden image itself was never touched.
	if integrity.CRC(golden) != crc {
		t.Fatal("a flip wrote the golden image")
	}
}

// TestGuardedWeightsFlipCopiesOneTile: a flip pays for the one tile it hits
// — 64 KiB, not an image — and a repair gives the memory back to "no
// copies", including when a second flip has undone the first.
//
// TotalAlloc is process-wide, so whatever else allocates while a flip is
// measured lands in its sample too; it can only add. The flip's own cost is
// therefore the smallest of several fresh flips, each repaired before the
// next.
func TestGuardedWeightsFlipCopiesOneTile(t *testing.T) {
	golden := make([]int8, 64*isa.WeightTileBytes) // 4 MiB
	for i := range golden {
		golden[i] = int8(i * 7)
	}
	g, err := NewGuardedWeights(golden, 34, 4*isa.WeightTileBytes)
	if err != nil {
		t.Fatal(err)
	}
	addr := g.Base() + 5*isa.WeightTileBytes
	grew := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.FlipBit(5*isa.WeightTileBytes+17, 3)
		runtime.ReadMemStats(&after)
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		if g.Copies() != 1 {
			t.Fatalf("%d tiles copied after one flip, want 1", g.Copies())
		}
		if g.VerifyTile(addr) || !g.RepairTile(addr) || g.Copies() != 0 {
			t.Fatalf("the flip was not detected and repaired (%d copies left)", g.Copies())
		}
	}
	if grew > isa.WeightTileBytes+1024 {
		t.Fatalf("one FlipBit allocated %d B, want <= 64 KiB + 1 KiB", grew)
	}
	// Two flips of one bit restore the bytes: the tile is clean, and the
	// repair still drops its copy.
	g.FlipBit(9, 1)
	g.FlipBit(9, 1)
	if !g.VerifyTile(g.Base()) || g.RepairTile(g.Base()) || g.Copies() != 0 {
		t.Fatalf("a flipped-back tile: clean %v, %d copies after repair", g.VerifyTile(g.Base()), g.Copies())
	}
}
