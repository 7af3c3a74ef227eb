package systolic

import (
	"unsafe"

	"tpusim/internal/cpu"
	"tpusim/internal/fixed"
	"tpusim/internal/isa"
)

// How many activation rows each assembly kernel computes together: every
// weight vector it builds is multiplied against all of them.
const (
	avx2Rows = 4
	vnniRows = 6
	amxRows  = 16
)

var (
	amx  = kernel{name: "amx", rows: amxRows, mulRange: (*Array).mulRangeAMX}
	vnni = kernel{name: "avx512vnni", rows: vnniRows, mulRange: (*Array).mulRangeVNNI}
	avx2 = kernel{name: "avx2", rows: avx2Rows, mulRange: (*Array).mulRangeAVX2}
)

// hostKernels lists the kernels the CPU and the OS between them can run,
// fastest first (see package cpu for what "can run" takes). The VNNI kernel
// uses AVX-512 F and VNNI (package cpu's flag takes BW with them); the AMX
// kernel is the VNNI kernel plus the tiles.
func hostKernels() []*kernel {
	var ks []*kernel
	if cpu.AMX && cpu.AVX512VNNI {
		ks = append(ks, &amx)
	}
	if cpu.AVX512VNNI {
		ks = append(ks, &vnni)
	}
	if cpu.AVX2 {
		ks = append(ks, &avx2)
	}
	return append(ks, &swar)
}

//go:noescape
func mulGroupAVX2(w *[isa.WeightTileBytes]int8, rows *[isa.MatrixDim / 4]uint32, vals *[isa.MatrixDim / 4][avx2Rows][4]int16, quads int, out *[isa.MatrixDim]int32, n int)

//go:noescape
func mulBlocksAMX(w *[isa.WeightTileBytes]int8, in *[isa.MatrixDim]int8, stride int, out *[isa.MatrixDim]int32, blocks int, add bool)

//go:noescape
func mulGroupVNNI(w *[isa.WeightTileBytes]int8, rows *[isa.MatrixDim / 4]uint32, vals *[isa.MatrixDim / 4][vnniRows]uint32, quads int, out *[isa.MatrixDim]int32, n int)

// zeroRow pads a short last group of activation rows; nothing writes it.
var zeroRow [isa.MatrixDim]int8

// group points act at the len(act) activation rows starting at row i of in,
// whose rows lie stride bytes apart, padding a short last group (the batch
// ends at row hi) with zeroRow, and returns how many of them are real.
func group(act []*[isa.MatrixDim]int8, in []int8, stride, i, hi int) int {
	g := min(len(act), hi-i)
	for j := range act {
		act[j] = &zeroRow
		if j < g {
			act[j] = (*[isa.MatrixDim]int8)(in[(i+j)*stride:])
		}
	}
	return g
}

// nonzero8 tests eight contraction rows at once: byte k of the result is
// nonzero iff contraction row r0+k is nonzero in some row of act. Both
// assembly kernels' zero-row skip walks these masks over the real rows of a
// group only: the padding rows are zero.
func nonzero8(act []*[isa.MatrixDim]int8, r0 int) uint64 {
	var m uint64
	for _, a := range act {
		m |= *(*uint64)(unsafe.Pointer(&a[r0]))
	}
	return m
}

// mulRangeAVX2 computes output rows [lo, hi) with the AVX2 assembly kernel,
// which reads the tile's int8 bytes where they lie. Activation rows are taken
// avx2Rows at a time. For each group the wrapper gathers, like the VNNI one,
// the aligned quads of contraction rows where any of the group's activations
// is nonzero — the zero-row skip — with each activation row's four values of
// the quad sign-extended to int16, the operand VPMADDWD takes.
//
// Exactness: sign-extended int8 operands in int16 lanes give pair sums of
// magnitude at most 2*128*128 = 2^15 in int32 (VPMADDWD's only wrapping
// input, both products (-32768)^2, is unreachable from int8); a lane adds one
// pair sum per quad, at most 2^21 over 64 quads, and the two lanes of a column
// add to at most 2^22. Integer addition is associative, so the result is
// bit-identical to MulRow whatever the grouping.
// With add, each group is computed into sums and added to its output rows.
func (a *Array) mulRangeAVX2(in []int8, stride int, out [][isa.MatrixDim]int32, lo, hi int, add bool) {
	var (
		act  [avx2Rows]*[isa.MatrixDim]int8
		rows [isa.MatrixDim / 4]uint32
		vals [isa.MatrixDim / 4][avx2Rows][4]int16
		sums [avx2Rows][isa.MatrixDim]int32
	)
	for i := lo; i < hi; i += avx2Rows {
		g := group(act[:], in, stride, i, hi)
		n := quadsAVX2(&act, g, &rows, &vals)
		if !add {
			mulGroupAVX2(a.active.w, &rows, &vals, n, &out[i], g)
			continue
		}
		mulGroupAVX2(a.active.w, &rows, &vals, n, &sums[0], g)
		addRows(out[i:i+g], sums[:g])
	}
}

// quadsAVX2 is mulRangeAVX2's zero-row skip: it gathers into rows and vals
// the aligned quads of contraction rows where any of the g real rows of act
// is nonzero — each quad's offset in the tile and each activation row's four
// values of it as int16 — and returns how many it gathered. A function of
// its own, so that its loops keep their operands in registers.
func quadsAVX2(act *[avx2Rows]*[isa.MatrixDim]int8, g int, rows *[isa.MatrixDim / 4]uint32, vals *[isa.MatrixDim / 4][avx2Rows][4]int16) int {
	n := 0
	for r0 := 0; r0 < isa.MatrixDim; r0 += 8 {
		m := nonzero8(act[:g], r0)
		for r := r0; m != 0; r, m = r+4, m>>32 {
			if uint32(m) == 0 {
				continue
			}
			rows[n] = uint32(isa.WeightOffset(r, 0))
			for j, aj := range act {
				vals[n][j] = [4]int16{int16(aj[r]), int16(aj[r+1]), int16(aj[r+2]), int16(aj[r+3])}
			}
			n++
		}
	}
	return n
}

// addRows adds the partial-sum rows sums into out, row for row; the kernels'
// callers keep every sum in int32's range (see MultiplyStrided), where
// SatAddRow's saturating add is the plain one.
func addRows(out, sums [][isa.MatrixDim]int32) {
	for j := range sums {
		fixed.SatAddRow(out[j][:], sums[j][:])
	}
}

// mulRangeVNNI computes output rows [lo, hi) with the AVX-512 VNNI assembly
// kernel, which like the AVX2 one reads the tile's bytes where they lie: a
// quad row's 64-column stretch is four VPDPBUSD weight operands as it stands.
// Activation rows are taken vnniRows at a time. VPDPBUSD consumes four
// contraction rows per int32 sum, so the zero-row skip works on aligned quads
// of them: a quad is gathered when any of its 4 x vnniRows activations is
// nonzero, and what the kernel needs of it is the four activation bytes of
// each row exactly as they lie — one 32-bit load, no padding, no shuffling.
//
// Exactness: the kernel multiplies the biased weights w+128 in [0, 255] by
// the signed activations, so a lane's four products have magnitude at most
// 255*128 each and are summed in int32 (VPDPBUSD, not its saturating form).
// Every accumulator starts at -128*sum(a) of its activation row, at most 2^22
// in magnitude, and 64 quads add at most 2^23 more, so nothing wraps on the
// way to sum((w+128)*a) - 128*sum(a) = sum(w*a): bit-identical to MulRow.
// With add, each group is computed into sums and added to its output rows.
func (a *Array) mulRangeVNNI(in []int8, stride int, out [][isa.MatrixDim]int32, lo, hi int, add bool) {
	var (
		act  [vnniRows]*[isa.MatrixDim]int8
		rows [isa.MatrixDim / 4]uint32
		vals [isa.MatrixDim / 4][vnniRows]uint32
		sums [vnniRows][isa.MatrixDim]int32
	)
	for i := lo; i < hi; i += vnniRows {
		g := group(act[:], in, stride, i, hi)
		n := quadsVNNI(&act, g, &rows, &vals)
		if !add {
			mulGroupVNNI(a.active.w, &rows, &vals, n, &out[i], g)
			continue
		}
		mulGroupVNNI(a.active.w, &rows, &vals, n, &sums[0], g)
		addRows(out[i:i+g], sums[:g])
	}
}

// quadsVNNI is quadsAVX2 for mulRangeVNNI: each activation row's four
// values of a gathered quad as they lie, one 32-bit load.
func quadsVNNI(act *[vnniRows]*[isa.MatrixDim]int8, g int, rows *[isa.MatrixDim / 4]uint32, vals *[isa.MatrixDim / 4][vnniRows]uint32) int {
	n := 0
	for r0 := 0; r0 < isa.MatrixDim; r0 += 8 {
		m := nonzero8(act[:g], r0)
		for r := r0; m != 0; r, m = r+4, m>>32 {
			if uint32(m) == 0 {
				continue
			}
			rows[n] = uint32(isa.WeightOffset(r, 0))
			for j, aj := range act {
				vals[n][j] = *(*uint32)(unsafe.Pointer(&aj[r]))
			}
			n++
		}
	}
	return n
}

// mulRangeAMX computes output rows [lo, hi) with the AMX tiles, amxRows at a
// time, and the rows left over — all of them in a range shorter than amxRows
// — with the VNNI kernel. The tile's quad rows are the B tiles' rows as they
// lie, so mulBlocksAMX loads its weights from the tile itself and builds
// nothing. With add, the tiles start from the output rows instead of from
// zero, so the sums land in out with no pass of their own.
//
// Exactness: TDPBSSD multiplies the signed weights by the signed
// activations as they are, no bias, and adds four products per int32 lane
// without saturating; a column's 256 products sum to at most 256*128*128 =
// 2^22 in magnitude, so nothing wraps: bit-identical to MulRow. With add,
// MultiplyStrided's caller keeps the starting values far enough from the
// int32 rails that nothing wraps either.
func (a *Array) mulRangeAMX(in []int8, stride int, out [][isa.MatrixDim]int32, lo, hi int, add bool) {
	if blocks := (hi - lo) / amxRows; blocks > 0 {
		mulBlocksAMX(a.active.w, (*[isa.MatrixDim]int8)(in[lo*stride:]), stride, &out[lo], blocks, add)
		lo += blocks * amxRows
	}
	if lo < hi {
		a.mulRangeVNNI(in, stride, out, lo, hi, add)
	}
}
