package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeString(t *testing.T) {
	if OpMatrixMultiply.String() != "matrix_multiply" {
		t.Errorf("got %q", OpMatrixMultiply.String())
	}
	if !strings.Contains(Opcode(200).String(), "200") {
		t.Error("unknown opcode should render its number")
	}
}

func TestMatrixMultiplyIsTwelveBytes(t *testing.T) {
	// The paper: "The CISC MatrixMultiply instruction is 12 bytes".
	n, err := EncodedLen(OpMatrixMultiply)
	if err != nil || n != 12 {
		t.Errorf("EncodedLen(matrix_multiply) = %d, %v; want 12", n, err)
	}
}

func TestEncodedLenUnknown(t *testing.T) {
	if _, err := EncodedLen(Opcode(200)); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestConvDimsPack(t *testing.T) {
	l := ConvDims(361, 9)
	p, r := UnpackConvDims(l)
	if p != 361 || r != 9 {
		t.Errorf("round trip = %d, %d", p, r)
	}
}

func TestTimes(t *testing.T) {
	for _, tc := range []struct {
		repeat uint16
		want   int
	}{{0, 1}, {1, 1}, {7, 7}} {
		in := Instruction{Repeat: tc.repeat}
		if got := in.Times(); got != tc.want {
			t.Errorf("repeat %d: Times() = %d, want %d", tc.repeat, got, tc.want)
		}
	}
}

func TestValidateRanges(t *testing.T) {
	bad := []Instruction{
		{Op: Opcode(99)},
		{Op: OpNop, UBAddr: UnifiedBufferBytes},
		{Op: OpNop, UBAddr: 100}, // unaligned UB address
		{Op: OpNop, AccAddr: AccumulatorCount},
		{Op: OpReadWeights, Addr: WeightMemoryBytes, TileCount: 1},
		{Op: OpReadWeights, Addr: 100, TileCount: 1}, // unaligned
		{Op: OpReadWeights, Addr: 0, TileCount: 0},
		{Op: OpMatrixMultiply, Len: 0},
		{Op: OpMatrixMultiply, Flags: FlagConvolve, Len: ConvDims(0, 5)},
		{Op: OpActivate, Len: 0},
		{Op: OpReadHostMemory, Len: 0},
		{Op: OpWriteHostMemory, UBAddr: UnifiedBufferBytes - 256, Len: 512},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instruction %d accepted: %v", i, in)
		}
	}
	good := []Instruction{
		{Op: OpNop},
		{Op: OpHalt},
		{Op: OpSync, Tag: 3},
		{Op: OpReadWeights, Addr: WeightTileBytes * 3, TileCount: 2},
		{Op: OpMatrixMultiply, Len: 200, UBAddr: 0x1000, AccAddr: 42},
		{Op: OpMatrixMultiply, Flags: FlagConvolve, Len: ConvDims(361, 9)},
		{Op: OpActivate, Len: 256, Func: 1},
		{Op: OpReadHostMemory, Len: 4096, Addr: 1 << 40},
	}
	for i, in := range good {
		if err := in.Validate(); err != nil {
			t.Errorf("good instruction %d rejected: %v", i, err)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Instruction{
		{Op: OpNop},
		{Op: OpHalt, Flags: 1},
		{Op: OpInterruptHost},
		{Op: OpSync, Tag: 99},
		{Op: OpSyncHost, Tag: 7},
		{Op: OpSetConfig, Tag: 12, Flags: 3},
		{Op: OpDebugTag, Tag: 0xBEE},
		{Op: OpReadHostMemory, UBAddr: 0x123400, Addr: 0xDEADBEEF00, Len: 65536, Repeat: 3},
		{Op: OpReadHostMemoryAlt, UBAddr: 0x100, Addr: 2, Len: 3},
		{Op: OpWriteHostMemory, UBAddr: 0xFFFF00, Addr: 1 << 39, Len: 15},
		{Op: OpWriteHostMemoryAlt, UBAddr: 0, Addr: 0, Len: 1},
		{Op: OpReadWeights, Addr: WeightTileBytes * 1000, TileCount: 64, Repeat: 2},
		{Op: OpMatrixMultiply, UBAddr: 0xABC00, AccAddr: 4095, Len: 250, Flags: FlagLoadTile | FlagAccumulate, Repeat: 9},
		{Op: OpMatrixMultiply, Flags: FlagConvolve | FlagWeights16, Len: ConvDims(361, 9), AccAddr: 1},
		{Op: OpActivate, AccAddr: 2048, UBAddr: 0x7FFF00, Len: 1 << 20, Func: 2, Pool: 2, Repeat: 5},
	}
	for i, in := range cases {
		wire, err := Encode(nil, in)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		want, _ := EncodedLen(in.Op)
		if len(wire) != want {
			t.Errorf("case %d: wire len %d, want %d", i, len(wire), want)
		}
		got, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if n != len(wire) {
			t.Errorf("case %d: consumed %d of %d", i, n, len(wire))
		}
		if got != in {
			t.Errorf("case %d round trip:\n got %+v\nwant %+v", i, got, in)
		}
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	if _, err := Encode(nil, Instruction{Op: OpMatrixMultiply, Len: 0}); err == nil {
		t.Error("invalid instruction encoded")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer accepted")
	}
	if _, _, err := Decode([]byte{200, 0, 0}); err == nil {
		t.Error("unknown opcode accepted")
	}
	// Truncated matrix multiply.
	wire, _ := Encode(nil, Instruction{Op: OpMatrixMultiply, Len: 5})
	if _, _, err := Decode(wire[:6]); err == nil {
		t.Error("truncated instruction accepted")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	// Corrupt a valid read_weights so its address is unaligned.
	wire, err := Encode(nil, Instruction{Op: OpReadWeights, Addr: WeightTileBytes, TileCount: 1})
	if err != nil {
		t.Fatal(err)
	}
	wire[2] = 1 // low address byte: now unaligned
	if _, _, err := Decode(wire); err == nil {
		t.Error("corrupt instruction accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Any valid matrix multiply round-trips bit-exactly.
	f := func(ub uint32, acc uint16, length uint32, flags uint8, repeat uint8) bool {
		in := Instruction{
			Op:      OpMatrixMultiply,
			UBAddr:  ub % UnifiedBufferBytes &^ (UBRowBytes - 1),
			AccAddr: acc % AccumulatorCount,
			Len:     length,
			Flags:   uint16(flags) &^ FlagConvolve,
			Repeat:  uint16(repeat),
		}
		if in.Len == 0 {
			in.Len = 1
		}
		wire, err := Encode(nil, in)
		if err != nil {
			return false
		}
		got, _, err := Decode(wire)
		return err == nil && got == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstructionString(t *testing.T) {
	cases := []Instruction{
		{Op: OpReadHostMemory, Len: 5},
		{Op: OpWriteHostMemory, Len: 5},
		{Op: OpReadWeights, TileCount: 2},
		{Op: OpMatrixMultiply, Len: 8},
		{Op: OpMatrixMultiply, Flags: FlagConvolve, Len: ConvDims(2, 2)},
		{Op: OpActivate, Len: 9},
		{Op: OpSync},
		{Op: OpNop},
	}
	for _, in := range cases {
		if in.String() == "" {
			t.Errorf("empty disassembly for %v", in.Op)
		}
	}
	if !strings.Contains((Instruction{Op: OpMatrixMultiply, Flags: FlagConvolve, Len: ConvDims(2, 2)}).String(), "convolve") {
		t.Error("convolve flag not rendered")
	}
}

// TestWeightOffsetIsABijection: the tile layout puts the 65,536 weights of a
// tile on the 65,536 bytes of its image, one each, and is the matrix unit's
// order: quad row r/4 is one 1 KiB stretch, in which column c's four weights
// are adjacent in row order at 4c.
func TestWeightOffsetIsABijection(t *testing.T) {
	seen := make([]bool, WeightTileBytes)
	for r := 0; r < MatrixDim; r++ {
		for c := 0; c < MatrixDim; c++ {
			o := WeightOffset(r, c)
			if o < 0 || o >= WeightTileBytes || seen[o] {
				t.Fatalf("weight (%d, %d) at %d: outside the tile or taken twice", r, c, o)
			}
			seen[o] = true
			if want := r/4*WeightQuadBytes + 4*c + r%4; o != want {
				t.Fatalf("weight (%d, %d) at %d, want quad row %d's byte %d", r, c, o, r/4, 4*c+r%4)
			}
		}
	}
}
