// Algorithm-based fault tolerance (ABFT) for the systolic matrix unit.
//
// The classic Huang–Abraham result: a matrix multiply can verify itself by
// carrying checksum rows/columns through the same datapath that computes
// the product. For the TPU's weight-stationary array the encoding is
// one-sided — each resident weight tile W is extended with two checksum
// columns, a plain column (sum of the row's weights) and an index-weighted
// column — and every activation row a that flows through the array
// satisfies, in exact integer arithmetic,
//
//	Σ_c (a·W)[c]        == a · sum(W)      (plain check)
//	Σ_c (c+1)·(a·W)[c]  == a · wsum(W)     (weighted check)
//
// A violated plain check flags the output row; the ratio of the two
// residuals localizes a single corrupted element to its column ((c+1) =
// Δweighted/Δplain) and yields the exact additive error, so a single flip
// is correctable in place without recomputation. Hardware-wise the two
// checksum columns ride through the 256-wide array as 2 extra columns of
// 258 — the timing model charges the 1/256-per-column occupancy in
// Device's integrity mode — instead of the 2-3x cost of full duplication
// (running every program twice and comparing the outputs).
//
// The checks are exact (tolerance zero): the functional simulator's
// partial sums are int32 dot products of int8 operands, far from
// overflowing the int64 checksum arithmetic, so any nonzero residual is
// corruption by construction.
package systolic

import (
	"fmt"
	"sync"

	"tpusim/internal/isa"
)

// Checksums is the ABFT encoding of one weight tile: the two checksum
// columns that would physically ride beside the 256 output columns.
type Checksums struct {
	// Sum[r] is the plain checksum Σ_c W[r][c].
	Sum [isa.MatrixDim]int32
	// Weighted[r] is the index-weighted checksum Σ_c (c+1)·W[r][c]. The
	// (c+1) weighting keeps column 0 distinguishable from "no error".
	Weighted [isa.MatrixDim]int64
}

// Checksum computes the ABFT encoding of a tile.
func Checksum(t *Tile) *Checksums {
	cs := &Checksums{}
	for r := 0; r < isa.MatrixDim; r++ {
		var s int32
		var ws int64
		for c := 0; c < isa.MatrixDim; c++ {
			v := int32(t.at(r, c))
			s += v
			ws += int64(c+1) * int64(v)
		}
		cs.Sum[r] = s
		cs.Weighted[r] = ws
	}
	return cs
}

// abft caches a tile's checksum encoding; computed at most once per tile
// (the shift into the array is when the physical checksum columns would be
// latched), shared by every matmul the tile serves.
type abft struct {
	once sync.Once
	cs   *Checksums
}

// Checksums returns the tile's ABFT encoding, computing and caching it on
// first use. Safe for concurrent use.
func (t *Tile) Checksums() *Checksums {
	t.abft.once.Do(func() { t.abft.cs = Checksum(t) })
	return t.abft.cs
}

// RowCheck is the verdict of one output row's ABFT verification.
type RowCheck struct {
	// OK reports whether both checksum equations held exactly.
	OK bool
	// Col is the localized output column of a single corrupted element,
	// or -1 when the corruption does not localize (multi-element damage);
	// only meaningful when !OK.
	Col int
	// Delta is the additive error on the localized element (observed -
	// true); subtracting it repairs the element. Only meaningful when
	// Col >= 0.
	Delta int64
}

// VerifyRow checks one output row out = act·W against the tile checksums
// that produced it. act must be the exact 256-wide activation row the
// array consumed (zero padding included) and out the raw partial-sum row
// before accumulation.
func (cs *Checksums) VerifyRow(act *[isa.MatrixDim]int8, out *[isa.MatrixDim]int32) RowCheck {
	var expS, expW int64
	for r := 0; r < isa.MatrixDim; r++ {
		if v := int64(act[r]); v != 0 {
			expS += v * int64(cs.Sum[r])
			expW += v * cs.Weighted[r]
		}
	}
	var gotS, gotW int64
	for c := 0; c < isa.MatrixDim; c++ {
		v := int64(out[c])
		gotS += v
		gotW += int64(c+1) * v
	}
	dS := gotS - expS
	dW := gotW - expW
	if dS == 0 && dW == 0 {
		return RowCheck{OK: true, Col: -1}
	}
	ck := RowCheck{Col: -1}
	if dS != 0 && dW%dS == 0 {
		if col := dW/dS - 1; col >= 0 && col < isa.MatrixDim {
			ck.Col = int(col)
			ck.Delta = dS
		}
	}
	return ck
}

// CorrectRow applies a localized single-element repair in place and
// reports whether the repaired row now passes verification. It returns an
// error when the check did not localize (ck.Col < 0): multi-element damage
// needs recomputation, not algebra.
func (cs *Checksums) CorrectRow(act *[isa.MatrixDim]int8, out *[isa.MatrixDim]int32, ck RowCheck) (bool, error) {
	if ck.OK {
		return true, nil
	}
	if ck.Col < 0 {
		return false, fmt.Errorf("systolic: ABFT corruption does not localize to one element")
	}
	out[ck.Col] = int32(int64(out[ck.Col]) - ck.Delta)
	return cs.VerifyRow(act, out).OK, nil
}

// ABFTComputeCycles returns the pipelined matrix-unit cost of a b-row
// operation with the two checksum columns riding along: the array is
// effectively 258 columns wide, so each row's occupancy stretches by
// 2/256. The cost is charged in whole cycles, at least one extra cycle per
// matmul, matching how the timing model quantizes occupancy.
func ABFTComputeCycles(b int, mode SpeedMode) int64 {
	base := ComputeCycles(b, mode)
	extra := (base*2 + isa.MatrixDim - 1) / isa.MatrixDim
	if extra < 1 && b > 0 {
		extra = 1
	}
	return base + extra
}
