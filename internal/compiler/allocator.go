// Package compiler lowers nn models into TPU programs: 256x256 weight
// tiling, accumulator double-buffering, Unified Buffer allocation, and the
// CISC instruction schedule that keeps the matrix unit busy. It plays the
// role of the paper's User Space driver, which "sets up and controls TPU
// execution, reformats data into TPU order, translates API calls into TPU
// instructions, and turns them into an application binary".
package compiler

import (
	"fmt"
	"sort"

	"tpusim/internal/isa"
)

// Allocator manages Unified Buffer address space for activation edges.
// Section 7 / Table 8: the TPU shipped with a simple allocator that used the
// full 24 MiB; an improved allocator later reduced the largest app to
// 14 MiB. Both are implemented: Naive never reuses space, Reuse frees dead
// buffers and first-fits new ones.
type Allocator interface {
	// Alloc reserves n bytes, 256-byte aligned, returning the UB address.
	Alloc(n int) (uint32, error)
	// Free releases a previously allocated buffer (no-op for Naive).
	Free(addr uint32) error
	// Peak returns the high-water mark in bytes.
	Peak() int
}

// Kind selects an allocator implementation.
type Kind int

const (
	// Naive is the ship-date allocator: every buffer gets fresh space.
	Naive Kind = iota
	// Reuse is the improved allocator: liveness-based reuse with
	// first-fit and coalescing.
	Reuse
)

// String names the allocator kind.
func (k Kind) String() string {
	switch k {
	case Naive:
		return "naive"
	case Reuse:
		return "reuse"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NewAllocator constructs an allocator over the full Unified Buffer.
func NewAllocator(k Kind) (Allocator, error) {
	switch k {
	case Naive:
		return &naiveAlloc{}, nil
	case Reuse:
		return newReuseAlloc(isa.UnifiedBufferBytes), nil
	default:
		return nil, fmt.Errorf("compiler: unknown allocator kind %d", int(k))
	}
}

func alignUp(n int) int {
	return (n + isa.UBRowBytes - 1) &^ (isa.UBRowBytes - 1)
}

type naiveAlloc struct {
	next int
}

func (a *naiveAlloc) Alloc(n int) (uint32, error) {
	if n <= 0 {
		return 0, fmt.Errorf("compiler: alloc of %d bytes", n)
	}
	n = alignUp(n)
	if a.next+n > isa.UnifiedBufferBytes {
		return 0, fmt.Errorf("compiler: Unified Buffer exhausted: %d + %d > %d (naive allocator)",
			a.next, n, isa.UnifiedBufferBytes)
	}
	addr := uint32(a.next)
	a.next += n
	return addr, nil
}

func (a *naiveAlloc) Free(uint32) error { return nil }

func (a *naiveAlloc) Peak() int { return a.next }

// reuseAlloc is a first-fit free-list allocator with coalescing.
type reuseAlloc struct {
	free []span // sorted by addr, coalesced
	// live tracks outstanding allocations. The population is the model's
	// simultaneously-live activation edges — a handful — so an unsorted
	// slice with linear lookup beats a map on both allocation count and
	// per-op cost in the compile loop.
	live  []liveBuf
	peak  int
	inUse int
}

type span struct{ addr, size int }

type liveBuf struct {
	addr uint32
	size int
}

func newReuseAlloc(size int) *reuseAlloc {
	return &reuseAlloc{free: []span{{0, size}}}
}

// reset returns the allocator to its freshly-constructed state, reusing the
// free-list and live-tracking backing arrays (pooled-scratch compiles).
func (a *reuseAlloc) reset(size int) {
	a.free = append(a.free[:0], span{0, size})
	a.live = a.live[:0]
	a.peak = 0
	a.inUse = 0
}

func (a *reuseAlloc) Alloc(n int) (uint32, error) {
	if n <= 0 {
		return 0, fmt.Errorf("compiler: alloc of %d bytes", n)
	}
	n = alignUp(n)
	for i, s := range a.free {
		if s.size < n {
			continue
		}
		addr := uint32(s.addr)
		if s.size == n {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = span{s.addr + n, s.size - n}
		}
		a.live = append(a.live, liveBuf{addr, n})
		a.inUse += n
		if end := int(addr) + n; end > a.peak {
			a.peak = end
		}
		return addr, nil
	}
	return 0, fmt.Errorf("compiler: Unified Buffer exhausted: no free span of %d bytes (reuse allocator, %d in use)",
		n, a.inUse)
}

func (a *reuseAlloc) Free(addr uint32) error {
	n := -1
	for j := range a.live {
		if a.live[j].addr == addr {
			n = a.live[j].size
			a.live[j] = a.live[len(a.live)-1]
			a.live = a.live[:len(a.live)-1]
			break
		}
	}
	if n < 0 {
		return fmt.Errorf("compiler: free of unallocated address %#x", addr)
	}
	a.inUse -= n
	// The free list is always sorted and coalesced, so the released span
	// has at most two mergeable neighbors: binary-search its slot and merge
	// in place instead of re-sorting the whole list on every free.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > int(addr) })
	mergeLeft := i > 0 && a.free[i-1].addr+a.free[i-1].size == int(addr)
	mergeRight := i < len(a.free) && int(addr)+n == a.free[i].addr
	switch {
	case mergeLeft && mergeRight:
		a.free[i-1].size += n + a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	case mergeLeft:
		a.free[i-1].size += n
	case mergeRight:
		a.free[i].addr = int(addr)
		a.free[i].size += n
	default:
		a.free = append(a.free, span{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = span{int(addr), n}
	}
	return nil
}

func (a *reuseAlloc) Peak() int { return a.peak }
