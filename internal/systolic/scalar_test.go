package systolic

import "tpusim/internal/isa"

// blockRows is the contraction-dimension block size of the cache-blocked
// kernel: 32 weight rows x 256 columns = 8 KiB of int8 weights, small
// enough to stay resident in L1d alongside one activation row (256 B) and
// one 1 KiB output accumulator row while every batch row is streamed
// against the block. The per-row MulRow path instead re-reads the whole
// 64 KiB tile from L2 for every activation row.
const blockRows = 32

// newTile returns a tile viewing its own zeroed 64 KiB buffer, for tests
// that fill the weights in place (set) before the first multiply.
func newTile() *Tile {
	t, err := TileFromBytes(make([]int8, isa.WeightTileBytes))
	if err != nil {
		panic(err)
	}
	return t
}

// set writes weight (r, c) through the view: the test owns the buffer.
func (t *Tile) set(r, c int, v int8) { t.w[isa.WeightOffset(r, c)] = v }

// mulRangeScalar is the pre-SWAR cache-blocked kernel, kept as the scalar
// arm of BenchmarkMultiply's kernel comparison and as a second reference
// implementation (the oracle) for the differential tests. For each activation
// row it walks the weight tile in blockRows x 256 blocks: the block's
// nonzero activation values and their contraction rows are gathered once (the
// zero-row skip), then each 8-column group accumulates the whole block in
// registers before storing. It visits rows in ascending order like MulRow,
// so it too is bit-identical.
func (a *Array) mulRangeScalar(in []int8, out [][isa.MatrixDim]int32, lo, hi int) {
	t := a.active
	for i := lo; i < hi; i++ {
		// Slice-to-array-pointer conversions give the compiler fixed
		// 256-element bounds, eliminating bounds checks in the MAC loop.
		row := (*[isa.MatrixDim]int8)(in[i*isa.MatrixDim:])
		o := &out[i]
		*o = [isa.MatrixDim]int32{}
		for r0 := 0; r0 < isa.MatrixDim; r0 += blockRows {
			// Gather the block's nonzero rows: quantized activations are
			// zero-heavy (ReLU), and a zero contributes nothing to any
			// column.
			var vs [blockRows]int32
			var rs [blockRows]int
			n := 0
			for r := r0; r < r0+blockRows; r++ {
				if v := int32(row[r]); v != 0 {
					vs[n] = v
					rs[n] = r
					n++
				}
			}
			if n == 0 {
				continue
			}
			for c := 0; c < isa.MatrixDim; c += 8 {
				a0, a1, a2, a3 := o[c], o[c+1], o[c+2], o[c+3]
				a4, a5, a6, a7 := o[c+4], o[c+5], o[c+6], o[c+7]
				for k := 0; k < n; k++ {
					v, r := vs[k], rs[k]
					a0 += v * int32(t.at(r, c))
					a1 += v * int32(t.at(r, c+1))
					a2 += v * int32(t.at(r, c+2))
					a3 += v * int32(t.at(r, c+3))
					a4 += v * int32(t.at(r, c+4))
					a5 += v * int32(t.at(r, c+5))
					a6 += v * int32(t.at(r, c+6))
					a7 += v * int32(t.at(r, c+7))
				}
				o[c], o[c+1], o[c+2], o[c+3] = a0, a1, a2, a3
				o[c+4], o[c+5], o[c+6], o[c+7] = a4, a5, a6, a7
			}
		}
	}
}
