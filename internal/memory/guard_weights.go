package memory

import (
	"fmt"
	"slices"

	"tpusim/internal/isa"
)

// GuardedWeights wraps Weight Memory with the two things real DRAM has that
// the plain model lacks: a *live* weight image that corruption persists in
// (a flipped DRAM bit stays flipped until something rewrites it), and a
// per-tile CRC-32C sidecar — the model of DRAM ECC's detection half — seeded
// from the golden image at install time. The golden image is never mutated:
// it is the program's WeightImage, shared with the compile cache, and serves
// as the repair source the background scrubber copies from (the paper's
// weights are read-only, so the host always has a clean copy to re-ship).
// Until the first FlipBit the live image *is* the golden one — only an upset
// needs bytes of its own, so a memory that never sees one holds no second
// image.
type GuardedWeights struct {
	mem    *WeightMemory
	golden []int8
	live   []int8
	guard  *Sidecar
}

// NewGuardedWeights builds a guarded weight memory over a golden image at a
// tile-aligned base. The live image starts as golden itself, and the sidecar
// (one CRC per 64 KiB tile) is seeded over it.
func NewGuardedWeights(golden []int8, bandwidthGBs float64, base uint64) (*GuardedWeights, error) {
	mem, err := NewWeightMemoryAt(golden, bandwidthGBs, base)
	if err != nil {
		return nil, err
	}
	guard, err := NewSidecar("weight-dram", len(golden), isa.WeightTileBytes)
	if err != nil {
		return nil, fmt.Errorf("memory: weight guard: %w", err)
	}
	guard.Seed(golden)
	return &GuardedWeights{mem: mem, golden: golden, live: golden, guard: guard}, nil
}

// Base returns the tile-aligned DRAM base address of the image.
func (g *GuardedWeights) Base() uint64 { return g.mem.base }

// Len returns the image length in bytes.
func (g *GuardedWeights) Len() int { return len(g.live) }

// TileView returns the tile at addr as a window of the live image when the
// image covers all of it (see WeightMemory.TileView). RepairTile and Scrub
// write through to it, and so does FlipBit once the live image has bytes of
// its own; a device run holds views because FlipBit precedes it, Scrub
// cannot overlap it, and RepairTile only touches a tile being fetched for
// the first time.
func (g *GuardedWeights) TileView(addr uint64) ([]int8, bool) {
	return g.mem.TileView(addr)
}

// VerifyTile checks the tile at addr against its CRC and reports whether it
// is clean. Tiles outside the image are trivially clean (unwritten DRAM).
func (g *GuardedWeights) VerifyTile(addr uint64) bool {
	if addr < g.mem.base || addr-g.mem.base >= uint64(len(g.live)) {
		return true
	}
	off := int(addr - g.mem.base)
	return len(g.guard.VerifyRange(g.live, off, isa.WeightTileBytes)) == 0
}

// RepairTile copies the golden bytes of the tile covering addr back over the
// live copy and resyncs its codeword. Reports whether the tile was actually
// corrupt. Addresses outside the image, and an image nothing has flipped,
// are no-ops.
func (g *GuardedWeights) RepairTile(addr uint64) bool {
	if g.shared() || addr < g.mem.base || addr-g.mem.base >= uint64(len(g.live)) {
		return false
	}
	off := int(addr-g.mem.base) / isa.WeightTileBytes * isa.WeightTileBytes
	end := off + isa.WeightTileBytes
	if end > len(g.live) {
		end = len(g.live)
	}
	bad := g.guard.VerifyRange(g.live, off, end-off)
	copy(g.live[off:end], g.golden[off:end])
	for _, b := range bad {
		g.guard.Resync(g.live, b)
	}
	return len(bad) > 0
}

// Scrub walks every tile, repairs corrupt ones from the golden image, and
// returns (tiles scanned, tiles repaired) — the background DRAM scrubber's
// one pass. An image nothing has flipped is golden and is left alone.
func (g *GuardedWeights) Scrub() (scanned, repaired int) {
	if g.shared() {
		return g.guard.Blocks(), 0
	}
	for b := 0; b < g.guard.Blocks(); b++ {
		scanned++
		off := b * g.guard.BlockBytes()
		end := off + g.guard.BlockBytes()
		if end > len(g.live) {
			end = len(g.live)
		}
		if len(g.guard.VerifyRange(g.live, off, end-off)) != 0 {
			copy(g.live[off:end], g.golden[off:end])
			g.guard.Resync(g.live, b)
			repaired++
		}
	}
	return scanned, repaired
}

// FlipBit flips one bit of the live image at byte offset off (mod image
// length, so fault injection always lands in real weights), bypassing the
// sidecar — the DRAM-upset seam. The first flip gives the live image bytes
// of its own, a copy of golden, and re-points the memory at them; views
// taken before it keep showing golden, so it must precede a run's fetches.
// Empty images are a no-op.
func (g *GuardedWeights) FlipBit(off uint64, bit uint8) {
	if len(g.live) == 0 {
		return
	}
	if g.shared() {
		g.live = slices.Clone(g.golden)
		g.mem.image = g.live
	}
	i := int(off % uint64(len(g.live)))
	g.live[i] ^= 1 << (bit % 8)
}

// shared reports whether the live image is still the golden one. Other
// devices and the compile cache read those bytes, so until FlipBit gives the
// live image its own, nothing here writes it.
func (g *GuardedWeights) shared() bool {
	return len(g.live) > 0 && &g.live[0] == &g.golden[0]
}
