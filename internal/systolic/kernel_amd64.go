package systolic

import (
	"math/bits"
	"unsafe"

	"tpusim/internal/isa"
)

// avx2Rows is how many activation rows mulGroupAVX2 computes together: each
// sign-extended, interleaved weight pair is multiplied against all of them.
const avx2Rows = 4

var avx2 = kernel{name: "avx2", rows: avx2Rows, mulRange: (*Array).mulRangeAVX2}

// nativeKernel picks the kernel from what the CPU reports.
func nativeKernel() *kernel {
	if cpuHasAVX2() {
		return &avx2
	}
	return &swar
}

func cpuHasAVX2() bool

//go:noescape
func mulGroupAVX2(w *[isa.WeightTileBytes]int8, rows *[isa.MatrixDim]uint32, vals *[isa.MatrixDim / 2][avx2Rows][2]int16, pairs int, out *[isa.MatrixDim]int32, n int)

// mulRangeAVX2 computes output rows [lo, hi) with the assembly kernel, which
// reads the tile's int8 bytes as Weight Memory delivered them: no lane image
// is built. Activation rows are taken avx2Rows at a time (a short last group
// is padded with zero rows). For each group the wrapper gathers the
// contraction rows where any of the group's activations is nonzero — the
// zero-row skip — and pairs them, padding an odd count with a zero
// activation, because VPMADDWD consumes two contraction rows per int32 sum.
//
// Exactness: sign-extended int8 operands in int16 lanes give pair sums of
// magnitude at most 2*128*128 = 2^15 in int32 (VPMADDWD's only wrapping
// input, both products (-32768)^2, is unreachable from int8), and 128 pairs
// add to at most 2^22 per column. Integer addition is associative, so the
// result is bit-identical to MulRow whatever the grouping and pairing.
func (a *Array) mulRangeAVX2(in []int8, out [][isa.MatrixDim]int32, lo, hi int) {
	var (
		zero [isa.MatrixDim]int8
		rows [isa.MatrixDim]uint32
		vals [isa.MatrixDim / 2][avx2Rows][2]int16
	)
	for i := lo; i < hi; i += avx2Rows {
		g := min(avx2Rows, hi-i)
		act := [avx2Rows]*[isa.MatrixDim]int8{&zero, &zero, &zero, &zero}
		for j := 0; j < g; j++ {
			act[j] = (*[isa.MatrixDim]int8)(in[(i+j)*isa.MatrixDim:])
		}
		a0, a1, a2, a3 := act[0], act[1], act[2], act[3]
		n := 0
		for r0 := 0; r0 < isa.MatrixDim; r0 += 8 {
			// Eight contraction rows per test: byte k of m is nonzero iff
			// row r0+k is nonzero in some activation row of the group.
			m := load64(&a0[r0]) | load64(&a1[r0]) | load64(&a2[r0]) | load64(&a3[r0])
			for m != 0 {
				k := bits.TrailingZeros64(m) >> 3
				m &^= 0xff << (k * 8)
				r := r0 + k
				rows[n] = uint32(r * isa.MatrixDim)
				p, h := &vals[n>>1], n&1
				p[0][h], p[1][h], p[2][h], p[3][h] = int16(a0[r]), int16(a1[r]), int16(a2[r]), int16(a3[r])
				n++
			}
		}
		if n&1 == 1 {
			rows[n] = rows[n-1]
			p := &vals[n>>1]
			p[0][1], p[1][1], p[2][1], p[3][1] = 0, 0, 0, 0
			n++
		}
		mulGroupAVX2(a.active.w, &rows, &vals, n/2, &out[i], g)
	}
}

// load64 reads eight activation bytes at once (amd64 allows the unaligned
// load; the caller keeps p at least eight bytes from the end of its row).
func load64(p *int8) uint64 { return *(*uint64)(unsafe.Pointer(p)) }
