package memory

import (
	"fmt"

	"tpusim/internal/isa"
)

// WeightMemory models the off-chip 8 GiB DDR3 DRAM holding read-only
// inference weights. Its 34 GB/s bandwidth is the TPU's principal
// bottleneck: "four of the six NN apps are memory-bandwidth limited".
type WeightMemory struct {
	image []int8
	base  uint64
}

// NewWeightMemoryAt places the image at a tile-aligned base address,
// supporting multiple resident models in the 8 GiB DRAM.
func NewWeightMemoryAt(image []int8, base uint64) (*WeightMemory, error) {
	if err := CheckWeightPlacement(len(image), base); err != nil {
		return nil, err
	}
	return &WeightMemory{image: image, base: base}, nil
}

// CheckWeightPlacement is NewWeightMemoryAt's validation on its own (a device
// run needs the verdict, not the memory): the base is tile-aligned, the image
// ends inside the 8 GiB DRAM.
func CheckWeightPlacement(imageBytes int, base uint64) error {
	if base%isa.WeightTileBytes != 0 {
		return fmt.Errorf("memory: weight base %#x not tile-aligned", base)
	}
	if base+uint64(imageBytes) > isa.WeightMemoryBytes {
		return fmt.Errorf("memory: weight image %d bytes at %#x exceeds 8 GiB", imageBytes, base)
	}
	return nil
}

// TileView returns the tile at addr as a window of the image itself — no
// copy, capacity clipped to the tile — when the image covers all 64 KiB of
// it. ok is false for every other address (a tile covered partly or not at
// all, unaligned, out of range); isa.Validate keeps a program's fetches off
// those. The window sees later writes to the image, and callers must not
// write through it.
func (w *WeightMemory) TileView(addr uint64) (tile []int8, ok bool) {
	if addr%isa.WeightTileBytes != 0 || addr < w.base {
		return nil, false
	}
	off := addr - w.base
	if off+isa.WeightTileBytes > uint64(len(w.image)) {
		return nil, false
	}
	return w.image[off : off+isa.WeightTileBytes : off+isa.WeightTileBytes], true
}

// TileFetchCycles returns how many device clock cycles fetching one 64 KiB
// tile occupies a DRAM channel of the given bandwidth. At 700 MHz and
// 34 GB/s this is ~1349 cycles — exactly the paper's ~1350 ops/byte ridge
// point, since the matrix unit retires one 256-wide row of MACs per cycle.
func TileFetchCycles(bandwidthGBs, clockMHz float64) float64 {
	bytesPerCycle := bandwidthGBs * 1e9 / (clockMHz * 1e6)
	return float64(isa.WeightTileBytes) / bytesPerCycle
}
