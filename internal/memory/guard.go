// Integrity sidecars for the storage hierarchy. Real DRAM and SRAM ship
// with ECC or parity beside the data; the simulator models the *checking*
// side of that machinery — per-block CRC-32C sidecars whose codewords are
// updated on every legitimate write, so any bit that changes outside a
// write (an injected fault, a real bug) is caught the next time the block
// is read, scrubbed, or shipped across a link. The sidecars never look at
// payload semantics: they guard bytes where they live, the ABFT checksums
// in internal/systolic guard values where they are computed.
package memory

import (
	"fmt"

	"tpusim/internal/integrity"
	"tpusim/internal/isa"
)

// Sidecar is a per-block CRC-32C shadow of one memory region. Blocks are
// fixed-size; the last block may be short. The zero Sidecar is invalid —
// use NewSidecar.
type Sidecar struct {
	block int
	sums  []uint32
}

// NewSidecar builds a sidecar for a size-byte region with the given block
// granularity, seeded over data (which may be nil for an all-zero region of
// the right size — CRC of zeros is still computed from a zero slice, so
// callers seed explicitly with Seed when data exists).
func NewSidecar(region string, size, block int) (*Sidecar, error) {
	if size < 0 || block <= 0 {
		return nil, fmt.Errorf("memory: sidecar %s: size %d / block %d invalid", region, size, block)
	}
	n := (size + block - 1) / block
	return &Sidecar{block: block, sums: make([]uint32, n)}, nil
}

// blockRange returns the block index range [lo, hi) covering [addr,
// addr+n) of the region.
func (s *Sidecar) blockRange(addr, n int) (lo, hi int) {
	if n <= 0 {
		return 0, 0
	}
	lo = addr / s.block
	hi = (addr + n + s.block - 1) / s.block
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.sums) {
		hi = len(s.sums)
	}
	return lo, hi
}

// Seed recomputes every codeword from data — the install-time pass.
func (s *Sidecar) Seed(data []int8) {
	s.Update(data, 0, len(data))
}

// Update recomputes the codewords of every block touched by a write of n
// bytes at addr. data is the full region backing store.
func (s *Sidecar) Update(data []int8, addr, n int) {
	lo, hi := s.blockRange(addr, n)
	for b := lo; b < hi; b++ {
		s.sums[b] = integrity.CRC(s.blockData(data, b))
	}
}

// VerifyRange checks every block covered by [addr, addr+n) against its
// codeword and returns the indices of corrupted blocks (nil when clean).
func (s *Sidecar) VerifyRange(data []int8, addr, n int) []int {
	lo, hi := s.blockRange(addr, n)
	var bad []int
	for b := lo; b < hi; b++ {
		if integrity.CRC(s.blockData(data, b)) != s.sums[b] {
			bad = append(bad, b)
		}
	}
	return bad
}

// blockData slices block b out of the region.
func (s *Sidecar) blockData(data []int8, b int) []int8 {
	lo := b * s.block
	hi := lo + s.block
	if hi > len(data) {
		hi = len(data)
	}
	if lo >= hi {
		return nil
	}
	return data[lo:hi]
}

// ubGuardBlock is the Unified Buffer guard granularity: one 256-byte UB
// row per codeword, so the write-path amplification of keeping codewords
// current is ~1x (a row-sized write recomputes exactly its own row).
const ubGuardBlock = 256

// EnableGuard attaches a per-row CRC sidecar to the buffer, seeded over
// its current contents: the zero-row codeword for every row, then the real
// one for the rows the backed prefix holds. Idempotent.
func (u *UnifiedBuffer) EnableGuard() {
	if u.guard != nil {
		return
	}
	g, err := NewSidecar("unified-buffer", u.Size(), ubGuardBlock)
	if err != nil {
		panic(err) // static sizes; cannot happen
	}
	zeroRow := integrity.CRC(make([]int8, ubGuardBlock))
	for i := range g.sums {
		g.sums[i] = zeroRow
	}
	g.Seed(u.data)
	u.guard = g
}

// VerifyGuard checks the guarded blocks covering [addr, addr+n) and
// returns corrupted block indices (block size 256 B). Nil when clean or
// unguarded.
func (u *UnifiedBuffer) VerifyGuard(addr uint32, n int) []int {
	if u.guard == nil {
		return nil
	}
	u.extend(int(addr) + n)
	return u.guard.VerifyRange(u.data, int(addr), n)
}

// FlipBit flips one bit in the buffer *without* updating the guard — the
// fault-injection seam modeling an SRAM upset. Out-of-range addresses are
// ignored. The byte joins the dirtied extent, so the upset does not outlive
// Reset.
func (u *UnifiedBuffer) FlipBit(addr uint32, bit uint8) {
	if int(addr) >= u.Size() {
		return
	}
	u.extend(int(addr) + 1)
	u.data[addr] ^= 1 << (bit % 8)
	u.highWater = max(u.highWater, int(addr)+1)
}

// HighWater returns the highest byte offset ever written or flipped
// (exclusive) — the live extent fault injection maps addresses into so
// flips land in bytes a program actually uses.
func (u *UnifiedBuffer) HighWater() int { return u.highWater }

// EnableGuard attaches per-register XOR parity to the accumulator file:
// one 32-bit parity word per 256-lane register, updated on every store.
// Any single bit flip in a lane flips the same bit of the parity word, so
// upsets are detected (localization to the lane is the recompute path's
// job). Idempotent.
func (a *Accumulators) EnableGuard() {
	if a.parity == nil {
		a.parity = make([]uint32, isa.AccumulatorCount)
	}
}

// parityOf folds a register into its parity word.
func parityOf(reg *[isa.MatrixDim]int32) uint32 {
	var p uint32
	for _, v := range reg {
		p ^= uint32(v)
	}
	return p
}

// VerifyParity checks registers [idx, idx+n) against their parity words
// and returns the indices that fail (nil when clean or unguarded). An
// unbacked register is zero with zero parity, so it passes.
func (a *Accumulators) VerifyParity(idx, n int) []int {
	if a.parity == nil {
		return nil
	}
	var bad []int
	for i, end := max(idx, 0), min(idx+n, isa.AccumulatorCount); i < end; i++ {
		if parityOf(a.reg(i)) != a.parity[i] {
			bad = append(bad, i)
		}
	}
	return bad
}

// FlipBit flips one bit of the byte at byte offset off within register
// idx, bypassing parity — the fault-injection seam for accumulator SRAM.
// The register's block is backed, and the register's magnitude bound is void
// until it is next overwritten. The upset lasts until then too: a program
// overwrites every register before it reads it, so an upset no later read of
// this run reaches is never read at all.
func (a *Accumulators) FlipBit(idx int, off int, bit uint8) {
	if idx < 0 || idx >= isa.AccumulatorCount {
		return
	}
	a.touch(idx, 1)
	a.tiles[idx] = unbounded
	lane := (off / 4) % isa.MatrixDim
	shift := uint(off%4)*8 + uint(bit%8)
	a.blocks[idx/accBlock][idx%accBlock][lane] ^= 1 << shift
}
