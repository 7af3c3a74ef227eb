package memory

import (
	"fmt"
	"math/bits"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
)

// Accumulators is the 4 MiB accumulator file: 4096 registers of 256 32-bit
// sums ("The 4 MiB represents 4096, 256-element, 32-bit accumulators").
// The size was picked so the compiler can double-buffer while the matrix
// unit runs at peak (Section 2) — so a compiled model alternates between
// the two halves, and the registers it writes are a few rows at 0 and a few
// at 2048, not a prefix. The file therefore tracks what a run dirtied per
// block of registers, and Reset costs what the model touched.
type Accumulators struct {
	regs [][isa.MatrixDim]int32
	// parity is the optional per-register XOR parity sidecar (EnableGuard);
	// nil costs one nil check per store.
	parity []uint32
	// dirty has one bit per block of accBlock registers, set when a store,
	// clear or injected flip may have left the block nonzero; Reset zeroes
	// exactly the set blocks.
	dirty uint64
}

// accBlock is the dirty-tracking granularity: 4096 registers / 64 mask bits.
const accBlock = isa.AccumulatorCount / 64

// NewAccumulators allocates the full 4096-register file.
func NewAccumulators() *Accumulators {
	return &Accumulators{regs: make([][isa.MatrixDim]int32, isa.AccumulatorCount)}
}

// Count returns the register count (4096).
func (a *Accumulators) Count() int { return len(a.regs) }

// touch marks the blocks covering registers [idx, idx+n) dirty. Callers
// have bounds-checked the range; an empty range marks nothing.
func (a *Accumulators) touch(idx, n int) {
	if n <= 0 {
		return
	}
	lo, hi := idx/accBlock, (idx+n-1)/accBlock
	a.dirty |= (^uint64(0) >> (63 - (hi - lo))) << lo
}

// Reset returns the file to its freshly-allocated state — every register
// zero — without reallocating the 4 MiB backing store. Only dirty blocks
// are zeroed; their parity words return to zero with them (the parity of a
// zero register is zero).
func (a *Accumulators) Reset() {
	for m := a.dirty; m != 0; m &= m - 1 {
		lo := bits.TrailingZeros64(m) * accBlock
		clear(a.regs[lo : lo+accBlock])
		if a.parity != nil {
			clear(a.parity[lo : lo+accBlock])
		}
	}
	a.dirty = 0
}

// Store writes one 256-wide partial sum into register idx. With accumulate
// set, values add saturating into the existing contents (summing partial
// products across weight-tile rows); otherwise they overwrite.
func (a *Accumulators) Store(idx int, row *[isa.MatrixDim]int32, accumulate bool) error {
	if idx < 0 || idx >= len(a.regs) {
		return fmt.Errorf("memory: accumulator index %d outside [0,%d)", idx, len(a.regs))
	}
	a.touch(idx, 1)
	if !accumulate {
		a.regs[idx] = *row
		a.updateParity(idx, 1)
		return nil
	}
	dst := &a.regs[idx]
	for i := range dst {
		dst[i] = fixed.SatAdd32(dst[i], row[i])
	}
	a.updateParity(idx, 1)
	return nil
}

// StoreRows bulk-writes consecutive partial-sum rows starting at register
// idx — the batched epilogue of one MatrixMultiply. Semantically identical
// to calling Store row by row: with accumulate set each row saturating-adds
// into the existing register, otherwise the rows overwrite.
func (a *Accumulators) StoreRows(idx int, rows [][isa.MatrixDim]int32, accumulate bool) error {
	if idx < 0 || idx+len(rows) > len(a.regs) {
		return fmt.Errorf("memory: accumulator range [%d,%d) outside [0,%d)", idx, idx+len(rows), len(a.regs))
	}
	a.touch(idx, len(rows))
	if !accumulate {
		copy(a.regs[idx:], rows)
		a.updateParity(idx, len(rows))
		return nil
	}
	for i := range rows {
		dst := &a.regs[idx+i]
		src := &rows[i]
		for j := range dst {
			dst[j] = fixed.SatAdd32(dst[j], src[j])
		}
	}
	a.updateParity(idx, len(rows))
	return nil
}

// Load reads register idx.
func (a *Accumulators) Load(idx int) (*[isa.MatrixDim]int32, error) {
	if idx < 0 || idx >= len(a.regs) {
		return nil, fmt.Errorf("memory: accumulator index %d outside [0,%d)", idx, len(a.regs))
	}
	return &a.regs[idx], nil
}

// Clear zeroes a contiguous register range.
func (a *Accumulators) Clear(idx, n int) error {
	if idx < 0 || n < 0 || idx+n > len(a.regs) {
		return fmt.Errorf("memory: accumulator clear [%d,%d) outside [0,%d)", idx, idx+n, len(a.regs))
	}
	a.touch(idx, n)
	for i := idx; i < idx+n; i++ {
		a.regs[i] = [isa.MatrixDim]int32{}
	}
	a.updateParity(idx, n)
	return nil
}
