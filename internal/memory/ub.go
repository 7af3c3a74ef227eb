// Package memory implements the TPU's storage hierarchy (Figure 1): the
// 24 MiB Unified Buffer that holds intermediate activations, the 4 MiB
// accumulator file below the matrix unit, and the off-chip 8 GiB Weight
// Memory with its DDR3 bandwidth. (The four-tile-deep Weight FIFO between
// Weight Memory and the matrix unit is queue state of the device, in
// internal/tpu.)
//
// The two on-chip memories are reused run after run by one device, so both
// keep their cost proportional to what a program touches: the Unified
// Buffer backs only its addressed prefix and Resets in place over the extent
// the last run dirtied (fault-injection flips included), and the accumulator
// file backs only the register blocks written and is never cleared, since a
// program overwrites a register before it reads it.
package memory

import (
	"fmt"

	"tpusim/internal/isa"
)

// UnifiedBuffer is the 24 MiB software-managed on-chip activation store.
// "The intermediate results are held in the 24 MiB on-chip Unified Buffer,
// which can serve as inputs to the Matrix Unit."
//
// The buffer is 24 MiB to its callers — Size and every bounds check say so
// — but it is backed on demand: only the addressed prefix has storage, and
// every byte beyond it is zero by definition. A device serving a model that
// addresses a few hundred KB holds that much, not 24 MiB.
type UnifiedBuffer struct {
	// data is the addressed prefix of the buffer, a whole number of guard
	// rows long; extend grows it before any access past its end.
	data []int8
	// guard is the optional per-row CRC sidecar (EnableGuard); nil costs
	// one nil check per write.
	guard *Sidecar
	// highWater is the highest byte offset ever written or flipped
	// (exclusive), bounding how much Reset must zero.
	highWater int
}

// NewUnifiedBuffer returns a zeroed 24 MiB buffer with no storage behind it
// yet.
func NewUnifiedBuffer() *UnifiedBuffer { return &UnifiedBuffer{} }

// Size returns the buffer capacity in bytes.
func (u *UnifiedBuffer) Size() int { return isa.UnifiedBufferBytes }

// extend backs the buffer up to byte offset end (clamped to Size): the
// store grows geometrically, in whole guard rows, and the new bytes are
// zero — what the unbacked buffer already read as.
func (u *UnifiedBuffer) extend(end int) {
	if end = min(end, u.Size()); end <= len(u.data) {
		return
	}
	rows := (end + ubGuardBlock - 1) / ubGuardBlock
	grown := make([]int8, min(max(2*len(u.data), rows*ubGuardBlock), u.Size()))
	copy(grown, u.data)
	u.data = grown
}

// Reset returns the buffer to its freshly-allocated state — all zeros, no
// recorded writes — keeping the storage it has grown. Only the dirtied
// prefix (up to the high-water mark) is zeroed, so a device serving a model
// that touches a few hundred KB pays for that much memclr. An attached
// guard is re-synced over the zeroed prefix, which also clears any injected
// corruption, exactly as a fresh buffer would.
func (u *UnifiedBuffer) Reset() {
	if u.highWater == 0 {
		return
	}
	clear(u.data[:u.highWater])
	if u.guard != nil {
		u.guard.Update(u.data, 0, u.highWater)
	}
	u.highWater = 0
}

// Write copies src into the buffer at addr.
func (u *UnifiedBuffer) Write(addr uint32, src []int8) error {
	end := int(addr) + len(src)
	if end > u.Size() {
		return fmt.Errorf("memory: UB write %#x+%d overruns %d-byte buffer", addr, len(src), u.Size())
	}
	u.extend(end)
	copy(u.data[addr:], src)
	u.highWater = max(u.highWater, end)
	if u.guard != nil {
		u.guard.Update(u.data, int(addr), len(src))
	}
	return nil
}

// View returns a read-only window without copying; callers must not hold it
// across writes. That is load-bearing: a write past the backed prefix moves
// the store, and a view taken before it keeps reading the old one. The
// device copies or consumes every view before its next write.
func (u *UnifiedBuffer) View(addr uint32, n int) ([]int8, error) {
	if n < 0 || int(addr)+n > u.Size() {
		return nil, fmt.Errorf("memory: UB view %#x+%d overruns %d-byte buffer", addr, n, u.Size())
	}
	u.extend(int(addr) + n)
	return u.data[addr : int(addr)+n : int(addr)+n], nil
}
