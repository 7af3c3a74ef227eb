package compiler

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"tpusim/internal/isa"
	"tpusim/internal/nn"
)

// buildWeights packs every FC/Conv layer's weight matrix into 256x256 tiles
// in Weight Memory order and records per-tile occupancy metadata. Tile
// order within a layer is column-tile-major, row-tile-minor — the same
// order the instruction schedule consumes them, so Read_Weights streams
// sequentially through DRAM. A functional compile allocates the image once,
// at its exact footprint, and writes each tile in place in the matrix unit's
// order (putTile); the padding of a partial tile stays zero.
func (lo *lowering) buildWeights() error {
	if n := len(lo.m.Layers); cap(lo.layerTiles) >= n {
		lo.layerTiles = lo.layerTiles[:n] // every entry is assigned below
	} else {
		lo.layerTiles = make([]int64, n)
	}
	rowsPerTile := lo.tileRows()
	base := lo.weightNext
	if lo.qm != nil {
		lo.weightImage = make([]int8, WeightFootprint(lo.m, lo.opts.Weights16))
	}
	for i, l := range lo.m.Layers {
		lo.layerTiles[i] = lo.weightNext
		rows, cols := weightMatrixDims(l)
		if rows == 0 {
			continue
		}
		rowTiles := ceilDiv(rows, rowsPerTile)
		colTiles := ceilDiv(cols, isa.MatrixDim)
		var data []int8
		if lo.qm != nil {
			data = lo.qm.Weights[i].Data
		}
		for c := 0; c < colTiles; c++ {
			for rt := 0; rt < rowTiles; rt++ {
				usedRows := min(rowsPerTile, rows-rt*rowsPerTile)
				usedCols := min(isa.MatrixDim, cols-c*isa.MatrixDim)
				lo.tileMeta = append(lo.tileMeta, isa.TileMeta{
					Rows: uint16(usedRows), Cols: uint16(usedCols),
				})
				if lo.qm != nil {
					tile := (*[isa.WeightTileBytes]int8)(lo.weightImage[lo.weightNext-base:])
					putTile(tile, data[rt*isa.MatrixDim*cols+c*isa.MatrixDim:], cols, usedRows, usedCols)
				}
				lo.weightNext += isa.WeightTileBytes
			}
		}
	}
	if lo.weightNext > isa.WeightMemoryBytes {
		return fmt.Errorf("compiler: weight image %d bytes exceeds 8 GiB Weight Memory", lo.weightNext)
	}
	return nil
}

// zeroRow stands in for the rows past a tile's last in putTile's quads.
var zeroRow [isa.MatrixDim]int8

// putTile writes the rows x cols weights at the top left of src, a row-major
// matrix stride columns wide, into the zeroed tile in the matrix unit's order
// (isa.WeightOffset); the tile's padding stays zero. A quad of rows goes
// eight columns at a time: the four rows' eight-byte words are transposed in
// registers into four words of two columns' four weights each, the quad
// row's layout, and stored whole. Loads and stores are little-endian, so
// byte k of a word is column (or weight) k on any host. The words are
// addressed past the bounds checks: every row is checked to hold cols bytes
// once, and a quad row holds 4*cols <= 1 KiB.
func putTile(tile *[isa.WeightTileBytes]int8, src []int8, stride, rows, cols int) {
	const (
		evenBytes = 0x00FF00FF00FF00FF // bytes 0, 2, 4, 6
		evenWords = 0x0000FFFF0000FFFF // 16-bit halves 0 and 2
		loHalf    = 0x00000000FFFFFFFF
	)
	word := func(p unsafe.Pointer, off int) uint64 {
		return binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(p, off))[:])
	}
	for r0 := 0; r0 < rows; r0 += 4 {
		quad := (*[isa.WeightQuadBytes]int8)(tile[isa.WeightOffset(r0, 0):])
		var rs [4]unsafe.Pointer
		for i := range rs {
			rs[i] = unsafe.Pointer(&zeroRow)
			if r := r0 + i; r < rows {
				rs[i] = unsafe.Pointer(&src[r*stride : r*stride+cols][0])
			}
		}
		c := 0
		for ; c+8 <= cols; c += 8 {
			a, b, e, d := word(rs[0], c), word(rs[1], c), word(rs[2], c), word(rs[3], c)
			// a, b, e and d are rows 0-3, byte k of each column k. Swap
			// bytes between rows 0 and 1, and between rows 2 and 3:
			// a = a0 b0 a2 b2 a4 b4 a6 b6, b = a1 b1 a3 b3 a5 b5 a7 b7, and
			// e and d the same for rows 2 and 3.
			t := (a>>8 ^ b) & evenBytes
			a, b = a^t<<8, b^t
			t = (e>>8 ^ d) & evenBytes
			e, d = e^t<<8, d^t
			// Swap byte pairs between the two: a now holds columns 0 and 4,
			// b 1 and 5, e 2 and 6, d 3 and 7, each as its four bytes in row
			// order.
			t = (a>>16 ^ e) & evenWords
			a, e = a^t<<16, e^t
			t = (b>>16 ^ d) & evenWords
			b, d = b^t<<16, d^t
			out := (*[32]byte)(unsafe.Pointer(&quad[4*c]))
			binary.LittleEndian.PutUint64(out[0:], a&loHalf|b<<32)
			binary.LittleEndian.PutUint64(out[8:], e&loHalf|d<<32)
			binary.LittleEndian.PutUint64(out[16:], a>>32|b&^loHalf)
			binary.LittleEndian.PutUint64(out[24:], e>>32|d&^loHalf)
		}
		for ; c < cols; c++ {
			for i, p := range rs {
				quad[4*c+i] = *(*int8)(unsafe.Add(p, c))
			}
		}
	}
}

// WeightFootprint returns the tile-aligned Weight Memory bytes a model's
// weight image occupies — the region size the driver must reserve before
// compiling at a chosen WeightBase. It is exact: buildWeights advances by
// one 64 KiB tile per (row-tile, col-tile) pair of every matrix layer.
func WeightFootprint(m *nn.Model, weights16 bool) int64 {
	rowsPerTile := isa.MatrixDim
	if weights16 {
		rowsPerTile = isa.MatrixDim / 2
	}
	var n int64
	for _, l := range m.Layers {
		rows, cols := weightMatrixDims(l)
		if rows == 0 {
			continue
		}
		n += int64(ceilDiv(rows, rowsPerTile)) * int64(ceilDiv(cols, isa.MatrixDim)) * isa.WeightTileBytes
	}
	return n
}

// weightMatrixDims returns the (contraction rows, output cols) of a layer's
// weight matrix as the matrix unit sees it; (0, 0) for layers with no
// matrix weights.
func weightMatrixDims(l nn.Layer) (rows, cols int) {
	switch l.Kind {
	case nn.FC:
		return l.In, l.Out
	case nn.Conv:
		return l.Conv.K * l.Conv.K * l.Conv.Cin, l.Conv.Cout
	default:
		return 0, 0
	}
}

// tileAddr returns the Weight Memory address of tile (rt, c) of a layer.
func (lo *lowering) tileAddr(layer, rt, c, rowTiles int) uint64 {
	return uint64(lo.layerTiles[layer]) + uint64(c*rowTiles+rt)*isa.WeightTileBytes
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// tileRows returns how many weight-matrix rows one 64 KiB tile holds: 256
// at 8 bits per weight, 128 at 16 ("the Matrix Unit computes at
// half-speed" — and each 16-bit weight also occupies two bytes of tile and
// of DRAM traffic).
func (lo *lowering) tileRows() int {
	if lo.opts.Weights16 {
		return isa.MatrixDim / 2
	}
	return isa.MatrixDim
}
