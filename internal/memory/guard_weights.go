package memory

import (
	"tpusim/internal/integrity"
	"tpusim/internal/isa"
)

// GuardedWeights wraps Weight Memory with the two things real DRAM has that
// the plain model lacks: corruption that persists (a flipped DRAM bit stays
// flipped until something rewrites it), and a per-tile CRC-32C codeword — the
// model of DRAM ECC's detection half — of the golden bytes. The golden image
// is never written: it is the program's WeightImage, which the compile cache
// and every other device of the server running the same weights read too,
// and it is the repair source (the paper's weights are read-only, so the host
// always has a clean copy to re-ship). A tile's live bytes are its golden
// window until FlipBit upsets it: the flip copies that one tile and flips the
// copy, and a repair drops the copy. So a memory holds 64 KiB per upset tile
// and nothing for the rest. A golden tile is clean by construction, so its
// codeword is taken when the first flip copies it — the value install-time
// seeding would give, since golden never changes.
type GuardedWeights struct {
	mem    *WeightMemory // over golden
	golden []int8
	// copies[b] is tile b's live bytes once a flip has upset it; nil means
	// the tile is golden. sums[b] is tile b's golden codeword, valid while
	// copies[b] is set.
	copies []*[isa.WeightTileBytes]int8
	sums   []uint32
}

// NewGuardedWeights builds a guarded weight memory over a golden image at a
// tile-aligned base, every tile golden.
func NewGuardedWeights(golden []int8, base uint64) (*GuardedWeights, error) {
	mem, err := NewWeightMemoryAt(golden, base)
	if err != nil {
		return nil, err
	}
	tiles := (len(golden) + isa.WeightTileBytes - 1) / isa.WeightTileBytes
	return &GuardedWeights{mem: mem, golden: golden,
		copies: make([]*[isa.WeightTileBytes]int8, tiles), sums: make([]uint32, tiles)}, nil
}

// Copies returns how many tiles hold bytes of their own: upset by a flip and
// not repaired since.
func (g *GuardedWeights) Copies() int {
	n := 0
	for _, c := range g.copies {
		if c != nil {
			n++
		}
	}
	return n
}

// TileView returns the tile at addr as a window of its live bytes — the
// tile's copy if a flip has upset it, else the golden image — when the image
// covers all of it (see WeightMemory.TileView). A later FlipBit writes
// through a copy's window, and a repair drops the copy from under it; a
// device run holds views because FlipBit precedes it, Scrub cannot overlap
// it, and RepairTile only touches a tile being fetched for the first time.
func (g *GuardedWeights) TileView(addr uint64) ([]int8, bool) {
	view, ok := g.mem.TileView(addr)
	if ok {
		if c := g.copies[(addr-g.mem.base)/isa.WeightTileBytes]; c != nil {
			return c[:], true
		}
	}
	return view, ok
}

// VerifyTile checks the tile at addr against its CRC and reports whether it
// is clean. Tiles outside the image are trivially clean (unwritten DRAM).
func (g *GuardedWeights) VerifyTile(addr uint64) bool {
	b, ok := g.block(addr)
	return !ok || g.clean(b)
}

// RepairTile drops the copy of the tile covering addr, so that it reads as
// golden again, and reports whether the tile was actually corrupt. Addresses
// outside the image, and golden tiles, are no-ops.
func (g *GuardedWeights) RepairTile(addr uint64) bool {
	b, ok := g.block(addr)
	if !ok || g.copies[b] == nil {
		return false
	}
	bad := !g.clean(b)
	g.copies[b] = nil
	return bad
}

// Scrub is the background DRAM scrubber's one pass over every tile: each
// copy is checked and dropped. It returns (tiles scanned, tiles repaired).
func (g *GuardedWeights) Scrub() (scanned, repaired int) {
	for b, c := range g.copies {
		if c == nil {
			continue
		}
		if !g.clean(b) {
			repaired++
		}
		g.copies[b] = nil
	}
	return len(g.copies), repaired
}

// FlipBit flips one bit of the live image at logical byte offset off (mod
// image length, so fault injection always lands in real weights), bypassing
// the codeword — the DRAM-upset seam. The offset names a weight as a
// row-major matrix of its tile would, tile off/64 KiB, row, then column, and
// physicalOffset maps it to where that weight lies in the matrix unit's order,
// so a flip's address names the same weight whatever the layout. The first
// flip of a tile copies that tile and flips the copy; views of it taken
// before keep showing golden, so a flip must precede a run's fetches. Empty
// images are a no-op.
func (g *GuardedWeights) FlipBit(off uint64, bit uint8) {
	if len(g.golden) == 0 {
		return
	}
	i := physicalOffset(int(off % uint64(len(g.golden))))
	b := i / isa.WeightTileBytes
	c := g.copies[b]
	if c == nil {
		golden := g.tile(b)
		g.sums[b] = integrity.CRC(golden)
		c = new([isa.WeightTileBytes]int8)
		copy(c[:], golden)
		g.copies[b] = c
	}
	c[i%isa.WeightTileBytes] ^= 1 << (bit % 8)
}

// physicalOffset maps logical image offset i — tile i/64 KiB, row-major byte
// i%64 KiB of it — to the offset where that weight lies (isa.WeightOffset).
// The map stays inside the tile; in a last tile the image covers only partly
// (which no compiled image has), a weight may map past the image's end, into
// bytes no fetch or check reads.
func physicalOffset(i int) int {
	j := i % isa.WeightTileBytes
	return i - j + isa.WeightOffset(j/isa.MatrixDim, j%isa.MatrixDim)
}

// block returns the index of the tile covering addr, ok false outside the
// image.
func (g *GuardedWeights) block(addr uint64) (int, bool) {
	if addr < g.mem.base || addr-g.mem.base >= uint64(len(g.golden)) {
		return 0, false
	}
	return int((addr - g.mem.base) / isa.WeightTileBytes), true
}

// tile returns tile b's live bytes: its copy, else its golden window (short
// for a last tile the image covers only partly).
func (g *GuardedWeights) tile(b int) []int8 {
	off := b * isa.WeightTileBytes
	n := min(isa.WeightTileBytes, len(g.golden)-off)
	if c := g.copies[b]; c != nil {
		return c[:n]
	}
	return g.golden[off : off+n]
}

// clean reports whether tile b's live bytes match its golden codeword.
func (g *GuardedWeights) clean(b int) bool {
	return g.copies[b] == nil || integrity.CRC(g.tile(b)) == g.sums[b]
}
