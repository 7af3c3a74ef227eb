// Package isa defines the TPU's CISC instruction set (Section 2): about a
// dozen instructions sent from the host over PCIe into the instruction
// buffer. The five key instructions are Read_Host_Memory, Read_Weights,
// MatrixMultiply/Convolve, Activate, and Write_Host_Memory; the rest are
// synchronization, configuration, and debugging support.
//
// The MatrixMultiply encoding is the paper's 12 bytes: "3 are Unified
// Buffer address; 2 are accumulator address; 4 are length (sometimes 2
// dimensions for convolutions); and the rest are opcode and flags."
package isa

import (
	"fmt"
)

// Opcode identifies a TPU instruction.
type Opcode uint8

const (
	// OpNop does nothing for one issue slot.
	OpNop Opcode = iota
	// OpReadHostMemory DMAs host memory into the Unified Buffer.
	OpReadHostMemory
	// OpReadHostMemoryAlt is the alternate host read (second DMA channel).
	OpReadHostMemoryAlt
	// OpReadWeights streams weight tiles from Weight Memory into the
	// Weight FIFO. It follows the decoupled-access/execute philosophy: it
	// retires after posting its address, before the data arrives.
	OpReadWeights
	// OpMatrixMultiply drives the matrix unit: a B*256 input from the
	// Unified Buffer times the resident 256x256 weight tile into the
	// accumulators, B pipelined cycles. FlagConvolve selects convolution
	// interpretation of the length field.
	OpMatrixMultiply
	// OpActivate applies the nonlinearity (and optionally pooling) to
	// accumulator values and writes results to the Unified Buffer.
	OpActivate
	// OpWriteHostMemory DMAs Unified Buffer data back to the host.
	OpWriteHostMemory
	// OpWriteHostMemoryAlt is the alternate host write.
	OpWriteHostMemoryAlt
	// OpSetConfig writes a device configuration register.
	OpSetConfig
	// OpSync is the barrier form of synchronization: it drains the matrix
	// pipeline before later instructions may read the Unified Buffer (the
	// "delay slot" of Section 2).
	OpSync
	// OpSyncHost is the host-visible synchronization variant.
	OpSyncHost
	// OpInterruptHost raises the completion interrupt.
	OpInterruptHost
	// OpDebugTag records a tag value in the trace.
	OpDebugTag
	// OpHalt stops instruction issue.
	OpHalt
)

var opNames = map[Opcode]string{
	OpNop:                "nop",
	OpReadHostMemory:     "read_host_memory",
	OpReadHostMemoryAlt:  "read_host_memory_alt",
	OpReadWeights:        "read_weights",
	OpMatrixMultiply:     "matrix_multiply",
	OpActivate:           "activate",
	OpWriteHostMemory:    "write_host_memory",
	OpWriteHostMemoryAlt: "write_host_memory_alt",
	OpSetConfig:          "set_config",
	OpSync:               "sync",
	OpSyncHost:           "sync_host",
	OpInterruptHost:      "interrupt_host",
	OpDebugTag:           "debug_tag",
	OpHalt:               "halt",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("opcode(%d)", int(o))
}

// Instruction flags.
const (
	// FlagConvolve marks a MatrixMultiply as a convolution; Len holds two
	// 16-bit dimensions (output positions x patch rows) instead of one.
	FlagConvolve uint16 = 1 << iota
	// FlagLoadTile shifts the next weight tile from the FIFO into the
	// matrix unit's double buffer before computing (256 cycles, overlapped
	// with the previous tile's computation).
	FlagLoadTile
	// FlagAccumulate adds into the addressed accumulators instead of
	// overwriting them (used when summing partial products across the K
	// dimension of a tiled matmul).
	FlagAccumulate
	// FlagWeights16 marks 16-bit weights: the matrix unit runs at half
	// speed (quarter speed when combined with FlagActs16).
	FlagWeights16
	// FlagActs16 marks 16-bit activations.
	FlagActs16
	// FlagPool requests pooling in the Activate datapath.
	FlagPool
)

// Hardware geometry constants (Section 2 / Table 2).
const (
	// MatrixDim is the matrix unit's edge: 256x256 MACs.
	MatrixDim = 256
	// UBRowBytes is the width of the internal datapaths ("The internal
	// blocks are typically connected together by 256-byte-wide paths");
	// Unified Buffer addresses are row numbers at this granularity.
	UBRowBytes = 256
	// UnifiedBufferBytes is the 24 MiB software-managed activation store.
	UnifiedBufferBytes = 24 << 20
	// AccumulatorCount is the 4096 256-wide 32-bit accumulator registers
	// (4 MiB), sized for double buffering above the ~1350 ops/byte ridge.
	AccumulatorCount = 4096
	// WeightTileBytes is one 256x256 8-bit weight tile (64 KiB), laid out
	// as WeightOffset says.
	WeightTileBytes = MatrixDim * MatrixDim
	// WeightQuadBytes is one quad row of a tile: the 256 columns' weights
	// of four consecutive contraction rows (1 KiB).
	WeightQuadBytes = 4 * MatrixDim
	// WeightFIFODepth is the on-chip weight FIFO depth in tiles.
	WeightFIFODepth = 4
	// WeightMemoryBytes is the off-chip 8 GiB weight DRAM.
	WeightMemoryBytes = 8 << 30
)

// WeightOffset returns where weight (r, c) of a tile — contraction row r,
// output column c, both in [0, MatrixDim) — lies among its WeightTileBytes:
// the matrix unit's order, the one Weight Memory holds and the array
// consumes. Quad row r/4 is WeightQuadBytes long, and in it each column's
// four weights (rows 4(r/4) .. 4(r/4)+3) are adjacent in row order. A quad
// row's 64-byte stretches are therefore whole operands of the int8 dot-product
// instructions that take four bytes per 32-bit lane (TDPBSSD's B rows,
// VPDPBUSD's weights), and a multiply reads the tile where it lies.
func WeightOffset(r, c int) int {
	return r>>2*WeightQuadBytes + c<<2 + r&3
}

// Instruction is the decoded form of one CISC instruction. Only the fields
// meaningful for the opcode are encoded; see EncodedLen for sizes.
//
// Fields are declared widest-first so the struct packs into 32 bytes instead
// of the 48 the encoding-order layout costs: every instruction-stream pass —
// the compiler's emission loop, Program.Validate's walk, the device's issue
// loop — streams the whole program, so a third less padding is a third less
// memory traffic on each of them, and two instructions share each 64-byte
// cache line.
type Instruction struct {
	// Addr is the instruction's memory operand: a host byte address for the
	// DMA instructions, a Weight Memory byte address (40-bit, tile-aligned)
	// for ReadWeights. No opcode uses both, and the wire encodings are
	// per-opcode anyway, so one field serves both roles.
	Addr uint64
	// UBAddr is a Unified Buffer byte address (24-bit).
	UBAddr uint32
	// Len is the matmul batch length B, or two packed 16-bit dims for a
	// convolution, or a DMA byte count.
	Len   uint32
	Flags uint16
	// Repeat is the CISC repeat field; 0 and 1 both mean "execute once".
	Repeat uint16
	// AccAddr is an accumulator register index (0..4095).
	AccAddr uint16
	// TileCount is how many 64 KiB tiles a ReadWeights fetches.
	TileCount uint16
	// Tag is the debug-tag / sync-id / config-register selector.
	Tag uint16
	Op  Opcode
	// Func selects the activation nonlinearity for Activate.
	Func uint8
	// Pool is the pooling window for Activate (0 = none).
	Pool uint8
}

// ConvDims packs two 16-bit convolution dimensions into Len.
func ConvDims(positions, patchRows uint16) uint32 {
	return uint32(positions)<<16 | uint32(patchRows)
}

// UnpackConvDims splits Len back into (positions, patchRows).
func UnpackConvDims(l uint32) (positions, patchRows uint16) {
	return uint16(l >> 16), uint16(l)
}

// Times returns the effective execution count from the repeat field.
func (in *Instruction) Times() int {
	if in.Repeat <= 1 {
		return 1
	}
	return int(in.Repeat)
}

// Validate checks address ranges and opcode-specific requirements. The
// pointer receiver (as on Times) keeps Program.Validate's walk from copying
// the 32-byte struct per call.
func (in *Instruction) Validate() error {
	// Opcodes are contiguous (OpNop..OpHalt), so a range check replaces the
	// opNames map lookup on this hot path (Program.Validate's walk runs it
	// once per instruction of every program).
	if in.Op > OpHalt {
		return fmt.Errorf("isa: unknown opcode %d", in.Op)
	}
	if in.UBAddr >= UnifiedBufferBytes {
		return fmt.Errorf("isa: %s: UB address %#x outside 24 MiB", in.Op, in.UBAddr)
	}
	// The instruction encoding carries UB addresses as 256-byte row numbers
	// (3 bytes cover 24 MiB of rows; the internal datapaths are 256 bytes
	// wide), so UB addresses must be row-aligned.
	if in.UBAddr%UBRowBytes != 0 {
		return fmt.Errorf("isa: %s: UB address %#x not %d-byte aligned", in.Op, in.UBAddr, UBRowBytes)
	}
	if int(in.AccAddr) >= AccumulatorCount {
		return fmt.Errorf("isa: %s: accumulator address %d outside %d", in.Op, in.AccAddr, AccumulatorCount)
	}
	switch in.Op {
	case OpReadWeights:
		if in.Addr >= WeightMemoryBytes {
			return fmt.Errorf("isa: read_weights address %#x outside 8 GiB", in.Addr)
		}
		if in.Addr%WeightTileBytes != 0 {
			return fmt.Errorf("isa: read_weights address %#x not tile-aligned", in.Addr)
		}
		if in.TileCount == 0 {
			return fmt.Errorf("isa: read_weights with zero tiles")
		}
	case OpMatrixMultiply:
		if in.Flags&FlagConvolve != 0 {
			pos, rows := UnpackConvDims(in.Len)
			if pos == 0 || rows == 0 {
				return fmt.Errorf("isa: convolve with zero dimension %dx%d", pos, rows)
			}
		} else if in.Len == 0 {
			return fmt.Errorf("isa: matrix_multiply with zero length")
		}
	case OpActivate:
		if in.Len == 0 {
			return fmt.Errorf("isa: activate with zero length")
		}
	case OpReadHostMemory, OpReadHostMemoryAlt, OpWriteHostMemory, OpWriteHostMemoryAlt:
		if in.Len == 0 {
			return fmt.Errorf("isa: %s with zero byte count", in.Op)
		}
		if uint64(in.UBAddr)+uint64(in.Len) > UnifiedBufferBytes {
			return fmt.Errorf("isa: %s overruns Unified Buffer: %#x+%d", in.Op, in.UBAddr, in.Len)
		}
	}
	return nil
}

// String renders a one-line disassembly.
func (in Instruction) String() string {
	switch in.Op {
	case OpReadHostMemory, OpReadHostMemoryAlt:
		return fmt.Sprintf("%s host=%#x ub=%#x len=%d", in.Op, in.Addr, in.UBAddr, in.Len)
	case OpWriteHostMemory, OpWriteHostMemoryAlt:
		return fmt.Sprintf("%s ub=%#x host=%#x len=%d", in.Op, in.UBAddr, in.Addr, in.Len)
	case OpReadWeights:
		return fmt.Sprintf("%s wmem=%#x tiles=%d", in.Op, in.Addr, in.TileCount)
	case OpMatrixMultiply:
		mode := "matmul"
		if in.Flags&FlagConvolve != 0 {
			mode = "convolve"
		}
		return fmt.Sprintf("%s.%s ub=%#x acc=%d len=%d flags=%#x", in.Op, mode, in.UBAddr, in.AccAddr, in.Len, in.Flags)
	case OpActivate:
		return fmt.Sprintf("%s acc=%d ub=%#x len=%d func=%d pool=%d", in.Op, in.AccAddr, in.UBAddr, in.Len, in.Func, in.Pool)
	case OpDebugTag, OpSetConfig, OpSync, OpSyncHost:
		return fmt.Sprintf("%s tag=%d", in.Op, in.Tag)
	default:
		return in.Op.String()
	}
}
