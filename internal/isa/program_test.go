package isa

import (
	"fmt"
	"strings"
	"testing"
)

func sampleProgram(t *testing.T) *Program {
	t.Helper()
	p, err := NewBuilder("sample").
		SetWeightImage(make([]int8, 2*WeightTileBytes)).
		Emit(Instruction{Op: OpReadHostMemory, Addr: 0, UBAddr: 0, Len: 1024}).
		Emit(Instruction{Op: OpReadWeights, Addr: 0, TileCount: 2}).
		Emit(Instruction{Op: OpMatrixMultiply, Flags: FlagLoadTile, UBAddr: 0, AccAddr: 0, Len: 4}).
		Emit(Instruction{Op: OpActivate, AccAddr: 0, UBAddr: 2048, Len: 4, Func: 1}).
		Emit(Instruction{Op: OpSync, Tag: 1}).
		Emit(Instruction{Op: OpWriteHostMemory, UBAddr: 2048, Addr: 4096, Len: 1024}).
		Emit(Instruction{Op: OpHalt}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderBuildsValidProgram(t *testing.T) {
	p := sampleProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Instructions) != 7 {
		t.Errorf("instruction count = %d", len(p.Instructions))
	}
}

func TestBuilderCatchesBadInstruction(t *testing.T) {
	_, err := NewBuilder("bad").
		Emit(Instruction{Op: OpMatrixMultiply, Len: 0}).
		Build()
	if err == nil {
		t.Error("builder accepted invalid instruction")
	}
}

func TestBuilderEmptyProgram(t *testing.T) {
	if _, err := NewBuilder("empty").Build(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestValidateWeightImageBounds(t *testing.T) {
	p := &Program{
		Name: "w",
		Instructions: []Instruction{
			{Op: OpReadWeights, Addr: 0, TileCount: 3},
		},
		WeightImage: make([]int8, 2*WeightTileBytes),
	}
	if err := p.Validate(); err == nil {
		t.Error("read past weight image accepted")
	}
}

func TestProgramEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram(t)
	wire, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeProgram("sample", wire)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Instructions) != len(p.Instructions) {
		t.Fatalf("decoded %d instructions, want %d", len(back.Instructions), len(p.Instructions))
	}
	for i := range p.Instructions {
		if back.Instructions[i] != p.Instructions[i] {
			t.Errorf("instruction %d: %+v != %+v", i, back.Instructions[i], p.Instructions[i])
		}
	}
}

func TestDecodeProgramCorrupt(t *testing.T) {
	if _, err := DecodeProgram("x", []byte{255}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestDisassemble(t *testing.T) {
	text := sampleProgram(t).Disassemble()
	for _, want := range []string{"read_host_memory", "read_weights", "matrix_multiply", "activate", "sync", "write_host_memory", "halt"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestCountRespectsRepeat(t *testing.T) {
	p := &Program{Name: "r", Instructions: []Instruction{
		{Op: OpNop, Repeat: 5},
		{Op: OpNop},
		{Op: OpHalt},
	}}
	if got := p.Count(OpNop); got != 6 {
		t.Errorf("Count(nop) = %d, want 6", got)
	}
	if got := p.Count(OpSync); got != 0 {
		t.Errorf("Count(sync) = %d, want 0", got)
	}
}

// Builder incrementally assembles a test program with validation at each
// step.
type Builder struct {
	prog *Program
	err  error
}

// NewBuilder starts a program.
func NewBuilder(name string) *Builder {
	return &Builder{prog: &Program{Name: name}}
}

// Emit appends an instruction.
func (b *Builder) Emit(in Instruction) *Builder {
	if b.err != nil {
		return b
	}
	if err := in.Validate(); err != nil {
		b.err = fmt.Errorf("isa: emit %d: %w", len(b.prog.Instructions), err)
		return b
	}
	b.prog.Instructions = append(b.prog.Instructions, in)
	return b
}

// SetWeightImage installs the weight memory contents.
func (b *Builder) SetWeightImage(img []int8) *Builder {
	if b.err == nil {
		b.prog.WeightImage = img
	}
	return b
}

// Build returns the validated program.
func (b *Builder) Build() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}
