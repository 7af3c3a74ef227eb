package compiler

import (
	"fmt"

	"tpusim/internal/isa"
	"tpusim/internal/nn"
)

// buildWeights packs every FC/Conv layer's weight matrix into 256x256 tiles
// in Weight Memory order and records per-tile occupancy metadata. Tile
// order within a layer is column-tile-major, row-tile-minor — the same
// order the instruction schedule consumes them, so Read_Weights streams
// sequentially through DRAM. A functional compile allocates the image once,
// at its exact footprint, and copies each tile's rows into place; the
// padding of a partial tile stays zero.
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
					tile := lo.weightImage[lo.weightNext-base:][:isa.WeightTileBytes]
					for r := 0; r < usedRows; r++ {
						srcBase := (rt*isa.MatrixDim+r)*cols + c*isa.MatrixDim
						copy(tile[r*isa.MatrixDim:r*isa.MatrixDim+usedCols], data[srcBase:srcBase+usedCols])
					}
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
