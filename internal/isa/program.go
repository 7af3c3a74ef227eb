package isa

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Program is an ordered instruction stream plus the weight image the host
// driver writes into Weight Memory before first execution (Section 2: the
// User Space driver "compiles a model the first time it is evaluated,
// caching the program image and writing the weight image into the TPU's
// weight memory").
type Program struct {
	Name         string
	Instructions []Instruction
	// WeightImage is the Weight Memory contents, tile-aligned, each tile in
	// the matrix unit's order (WeightOffset). It may be nil for timing-only
	// programs, in which case WeightBytes declares the image extent.
	WeightImage []int8
	// WeightBytes is the weight image size when WeightImage is nil
	// (timing-only compilation of full-size models).
	WeightBytes int64
	// WeightBase is the tile-aligned Weight Memory offset the image is
	// loaded at; several models can stay resident at distinct bases.
	WeightBase uint64
	// TileMeta records real (unpadded) rows/cols per weight tile, indexed
	// by Addr/WeightTileBytes, for useful-MAC accounting.
	TileMeta []TileMeta
	// ActTable maps Activate Func selectors to requantization pipelines.
	ActTable []ActMeta

	// validated is set after a successful Validate. Programs are immutable
	// once compiled, and the driver re-validates on every Device.Run, so
	// caching the verdict takes full validation off the hot path. Mutating
	// a Program after a successful Validate is unsupported.
	validated atomic.Bool
	// weightTiles caches the total ReadWeights tile count, computed during
	// Validate's instruction walk and published before validated flips true.
	weightTiles atomic.Int64
}

// WeightTiles returns the total number of weight tiles the program's
// ReadWeights instructions fetch, repeats included — the device's FIFO
// capacity requirement. Validate computes it during its one instruction
// walk; on a not-yet-validated program this walks the stream directly.
func (p *Program) WeightTiles() int {
	if p.validated.Load() {
		return int(p.weightTiles.Load())
	}
	tiles := 0
	for i := range p.Instructions {
		in := &p.Instructions[i]
		if in.Op == OpReadWeights {
			tiles += int(in.TileCount) * in.Times()
		}
	}
	return tiles
}

// WeightExtent returns the addressable weight image size in bytes.
func (p *Program) WeightExtent() int64 {
	if p.WeightImage != nil {
		return int64(len(p.WeightImage))
	}
	return p.WeightBytes
}

// Validate checks every instruction and the weight image size. A
// successful verdict is cached: compiled programs are immutable, so the
// per-run re-validation in Device.Run costs one atomic load instead of a
// full instruction walk.
func (p *Program) Validate() error {
	if p.validated.Load() {
		return nil
	}
	if len(p.Instructions) == 0 {
		return fmt.Errorf("isa: program %q is empty", p.Name)
	}
	if len(p.WeightImage) > WeightMemoryBytes {
		return fmt.Errorf("isa: program %q weight image %d bytes exceeds 8 GiB", p.Name, len(p.WeightImage))
	}
	if p.WeightBase%WeightTileBytes != 0 {
		return fmt.Errorf("isa: program %q weight base %#x not tile-aligned", p.Name, p.WeightBase)
	}
	// One pointer-based walk covers both the per-instruction checks and the
	// weight-image extent checks: range-by-value here would copy every
	// 32-byte instruction twice on what is the compile path's largest loop.
	extent := p.WeightExtent()
	tiles := 0
	for i := range p.Instructions {
		in := &p.Instructions[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: program %q instruction %d: %w", p.Name, i, err)
		}
		if in.Op != OpReadWeights {
			continue
		}
		tiles += int(in.TileCount) * in.Times()
		if in.Addr < p.WeightBase {
			return fmt.Errorf("isa: program %q instruction %d reads weights below its base (%#x < %#x)",
				p.Name, i, in.Addr, p.WeightBase)
		}
		end := in.Addr + uint64(in.TileCount)*WeightTileBytes
		if end > p.WeightBase+uint64(extent) {
			return fmt.Errorf("isa: program %q instruction %d reads weights beyond image (%d > %d)",
				p.Name, i, end, p.WeightBase+uint64(extent))
		}
	}
	p.weightTiles.Store(int64(tiles))
	p.validated.Store(true)
	return nil
}

// Encode serializes the instruction stream to its wire form, the bytes sent
// over PCIe into the instruction buffer.
func (p *Program) Encode() ([]byte, error) {
	var out []byte
	for i, in := range p.Instructions {
		var err error
		out, err = Encode(out, in)
		if err != nil {
			return nil, fmt.Errorf("isa: encoding instruction %d: %w", i, err)
		}
	}
	return out, nil
}

// DecodeProgram parses a wire-form instruction stream.
func DecodeProgram(name string, data []byte) (*Program, error) {
	p := &Program{Name: name}
	for len(data) > 0 {
		in, n, err := Decode(data)
		if err != nil {
			return nil, fmt.Errorf("isa: at offset %d: %w", len(data), err)
		}
		p.Instructions = append(p.Instructions, in)
		data = data[n:]
	}
	return p, nil
}

// Disassemble renders the program as text, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.Instructions {
		fmt.Fprintf(&b, "%5d  %s\n", i, in)
	}
	return b.String()
}

// Count returns how many instructions have the given opcode, counting
// repeats.
func (p *Program) Count(op Opcode) int {
	n := 0
	for _, in := range p.Instructions {
		if in.Op == op {
			n += in.Times()
		}
	}
	return n
}
