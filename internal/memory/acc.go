package memory

import (
	"fmt"
	"math"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
)

// Accumulators is the 4 MiB accumulator file: 4096 registers of 256 32-bit
// sums ("The 4 MiB represents 4096, 256-element, 32-bit accumulators").
// The size was picked so the compiler can double-buffer while the matrix
// unit runs at peak (Section 2) — so a compiled model alternates between
// the two halves, and the registers it writes are a few rows at 0 and a few
// at 2048, not a prefix. The file is 4096 registers to its callers — Count
// and every bounds check say so — but it is backed per block of registers:
// a block has storage once something is written into it, and every register
// of an unbacked block reads as zero. Nothing clears the file between runs:
// a program overwrites a register with a MatrixMultiply before it
// accumulates into it or drains it, as the chip's does, so what an earlier
// run left in the file is never read.
type Accumulators struct {
	// blocks[b] backs registers [b*accBlock, (b+1)*accBlock): nil until a
	// store or an injected flip lands in the block, kept from then on.
	blocks [accBlocks]*[accBlock][isa.MatrixDim]int32
	// parity is the optional per-register XOR parity sidecar (EnableGuard);
	// nil costs one nil check per store.
	parity []uint32
	// tiles[i] bounds register i's magnitude by tiles[i]*tileBound: it is
	// how many MatrixMultiply tiles have been stored into the register since
	// it was last overwritten (none in a fresh file), and unbounded once
	// anything else has written it (an injected upset).
	tiles [isa.AccumulatorCount]uint16
}

// tileBound is the most one MatrixMultiply tile adds to a lane: 256 products
// of two int8s, each at most 2^14 in magnitude, 2^22 in all.
const tileBound = isa.MatrixDim << 14

// A register holding at most maxWrapTiles tiles is below 2^31-2^22 in
// magnitude — (510+1)*2^22 = 2^31-2^22 — so adding one more tile cannot
// leave int32's range, and a wrapping add is fixed.SatAdd32's answer.
// unbounded is the count of a register nothing bounds.
const (
	maxWrapTiles = (math.MaxInt32 - tileBound) / tileBound
	unbounded    = math.MaxUint16
)

// The file is backed in accBlocks blocks of accBlock registers (64, so
// 64 KiB) each.
const (
	accBlocks = 64
	accBlock  = isa.AccumulatorCount / accBlocks
)

// zeroReg is what every register of an unbacked block reads as. Load hands
// out its address, so nothing may write through a loaded register.
var zeroReg [isa.MatrixDim]int32

// NewAccumulators returns the 4096-register file with no storage behind it.
func NewAccumulators() *Accumulators { return &Accumulators{} }

// reg returns register idx for reading: its storage, or zeroReg.
func (a *Accumulators) reg(idx int) *[isa.MatrixDim]int32 {
	if b := a.blocks[idx/accBlock]; b != nil {
		return &b[idx%accBlock]
	}
	return &zeroReg
}

// touch backs the blocks covering registers [idx, idx+n), ahead of a write.
// Callers have bounds-checked the range; an empty range touches nothing.
func (a *Accumulators) touch(idx, n int) {
	if n <= 0 {
		return
	}
	for b := idx / accBlock; b <= (idx+n-1)/accBlock; b++ {
		if a.blocks[b] == nil {
			a.blocks[b] = new([accBlock][isa.MatrixDim]int32)
		}
	}
}

// StoreRows writes consecutive 256-wide partial-sum rows starting at
// register idx — the batched epilogue of one MatrixMultiply. With accumulate
// set each row adds saturating into the existing register (summing partial
// products across weight-tile rows, fixed.SatAddRow); otherwise the rows
// overwrite.
func (a *Accumulators) StoreRows(idx int, rows [][isa.MatrixDim]int32, accumulate bool) error {
	if idx < 0 || idx+len(rows) > isa.AccumulatorCount {
		return fmt.Errorf("memory: accumulator range [%d,%d) outside [0,%d)", idx, idx+len(rows), isa.AccumulatorCount)
	}
	a.touch(idx, len(rows))
	a.count(idx, len(rows), accumulate)
	for i := range rows {
		a.store(idx+i, &rows[i], accumulate)
	}
	return nil
}

// count records one more tile stored into registers [idx, idx+n): the first
// since they were last overwritten when it overwrites them.
func (a *Accumulators) count(idx, n int, accumulate bool) {
	for i := idx; i < idx+n; i++ {
		switch {
		case !accumulate:
			a.tiles[i] = 1
		case a.tiles[i] < unbounded:
			a.tiles[i]++
		}
	}
}

// Unbound forgets the bound on registers [idx, idx+n): what was last stored
// there did not come from the matrix unit's arithmetic alone (a processing-
// element upset between the array and the file), so its magnitude is
// unknown until the registers are next overwritten.
func (a *Accumulators) Unbound(idx, n int) {
	for i := max(idx, 0); i < min(idx+n, isa.AccumulatorCount); i++ {
		a.tiles[i] = unbounded
	}
}

// Direct reports whether the matrix unit may write one tile's partial sums
// straight into registers [idx, idx+n) through Rows: always when they
// overwrite, and when they accumulate only while every register is bounded
// below 2^31-2^22, where the array's wrapping add is the saturating one. A
// guarded file takes every write through StoreRows, which keeps its parity.
func (a *Accumulators) Direct(idx, n int, accumulate bool) bool {
	if a.parity != nil || idx < 0 || idx+n > isa.AccumulatorCount {
		return false
	}
	if accumulate {
		for _, k := range a.tiles[idx : idx+n] {
			if k > maxWrapTiles {
				return false
			}
		}
	}
	return true
}

// Rows backs registers [idx, idx+n), counts one more tile into them and
// returns the run of them that idx's block holds — all n, or as many as fit
// before the block ends — for the matrix unit to write into directly. The
// caller has checked Direct and goes on from idx+len(result) until all n are
// written.
func (a *Accumulators) Rows(idx, n int, accumulate bool) [][isa.MatrixDim]int32 {
	r := idx % accBlock
	n = min(n, accBlock-r)
	a.touch(idx, n)
	a.count(idx, n, accumulate)
	return a.blocks[idx/accBlock][r : r+n]
}

// store writes one row into the backed register idx, parity word included.
func (a *Accumulators) store(idx int, row *[isa.MatrixDim]int32, accumulate bool) {
	dst := &a.blocks[idx/accBlock][idx%accBlock]
	if accumulate {
		p := fixed.SatAddRow(dst[:], row[:])
		if a.parity != nil {
			a.parity[idx] = p
		}
		return
	}
	*dst = *row
	if a.parity != nil {
		a.parity[idx] = parityOf(dst)
	}
}

// Load reads register idx. The result is read-only: a register nothing has
// been stored into is the one zero register every such Load shares.
func (a *Accumulators) Load(idx int) (*[isa.MatrixDim]int32, error) {
	if idx < 0 || idx >= isa.AccumulatorCount {
		return nil, fmt.Errorf("memory: accumulator index %d outside [0,%d)", idx, isa.AccumulatorCount)
	}
	return a.reg(idx), nil
}
