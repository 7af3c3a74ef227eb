package tpu

import (
	"fmt"
	"slices"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/isa"
	"tpusim/internal/models"
)

// accReadsWritten is the invariant that lets a device keep its accumulator
// file across runs without clearing it: walking p's instruction stream in
// issue order, no accumulating MatrixMultiply and no accumulator-sourced
// Activate touches a register that no earlier non-accumulating
// MatrixMultiply of the stream wrote. A MatrixMultiply writes one register
// per input row from AccAddr (a convolution's row count is its packed
// positions), an Activate drains Len registers from AccAddr. It returns the
// first instruction that breaks the rule.
func accReadsWritten(p *isa.Program) error {
	var written [isa.AccumulatorCount]bool
	for i := range p.Instructions {
		in := &p.Instructions[i]
		n, reads := int(in.Len), true
		switch {
		case in.Op == isa.OpHalt:
			return nil
		case in.Op == isa.OpMatrixMultiply:
			if in.Flags&isa.FlagConvolve != 0 {
				positions, _ := isa.UnpackConvDims(in.Len)
				n = int(positions)
			}
			reads = in.Flags&isa.FlagAccumulate != 0
		case in.Op == isa.OpActivate && in.Flags&isa.FlagVecSrcUB == 0:
		default:
			continue
		}
		lo := int(in.AccAddr)
		if lo+n > isa.AccumulatorCount {
			return fmt.Errorf("instruction %d (%s) addresses accumulators [%d, %d) beyond %d", i, in, lo, lo+n, isa.AccumulatorCount)
		}
		for r := lo; r < lo+n; r++ {
			if !reads {
				written[r] = true
			} else if !written[r] {
				return fmt.Errorf("instruction %d (%s) reads accumulator %d before this program writes it", i, in, r)
			}
		}
	}
	return nil
}

// TestAccumulatorWriteBeforeRead holds every program the compiler emits for
// the six production apps — both allocators, 16-bit weights, 16-bit
// activations, wherever the combination compiles — for the six tiny models
// and for the boundary models to accReadsWritten, and checks the walk
// itself rejects a program that accumulates into, or drains, a register it
// never wrote.
func TestAccumulatorWriteBeforeRead(t *testing.T) {
	opts := []compiler.Options{
		{Allocator: compiler.Reuse},
		{Allocator: compiler.Naive},
		{Allocator: compiler.Reuse, Weights16: true},
		{Allocator: compiler.Reuse, Acts16: true},
	}
	compiled := 0
	for _, b := range models.All() {
		for _, o := range opts {
			art, err := compiler.CompileShape(b.Model, o)
			if err != nil {
				continue // e.g. a naive allocation that overflows the Unified Buffer
			}
			compiled++
			if err := accReadsWritten(art.Program); err != nil {
				t.Errorf("%s %+v: %v", b.Model.Name, o, err)
			}
		}
	}
	if compiled < len(models.Names())*2 {
		t.Fatalf("only %d production programs compiled", compiled)
	}
	for _, name := range models.Names() {
		art, _, _ := functionalSetup(t, name)
		if err := accReadsWritten(art.Program); err != nil {
			t.Errorf("%s-tiny: %v", name, err)
		}
	}
	for _, m := range boundaryModels() {
		for _, alloc := range []compiler.Kind{compiler.Naive, compiler.Reuse} {
			art, err := compiler.CompileShape(m, compiler.Options{Allocator: alloc})
			if err != nil {
				t.Fatalf("%s: %v", m.Name, err)
			}
			if err := accReadsWritten(art.Program); err != nil {
				t.Errorf("%s (%v): %v", m.Name, alloc, err)
			}
		}
	}

	mm := func(flags uint16, acc uint16, n uint32) isa.Instruction {
		return isa.Instruction{Op: isa.OpMatrixMultiply, Flags: isa.FlagLoadTile | flags, AccAddr: acc, Len: n}
	}
	act := isa.Instruction{Op: isa.OpActivate, AccAddr: 8, Len: 4}
	for _, c := range []struct {
		name string
		ins  []isa.Instruction
		ok   bool
	}{
		{"overwrite then accumulate and drain", []isa.Instruction{mm(0, 8, 4), mm(isa.FlagAccumulate, 8, 4), act}, true},
		{"accumulate first", []isa.Instruction{mm(isa.FlagAccumulate, 8, 4), act}, false},
		{"accumulate past the written rows", []isa.Instruction{mm(0, 8, 4), mm(isa.FlagAccumulate, 8, 5)}, false},
		{"drain unwritten", []isa.Instruction{mm(0, 0, 4), act}, false},
		{"conv positions", []isa.Instruction{mm(isa.FlagConvolve, 8, isa.ConvDims(4, 3)), act}, true},
		{"drain past a conv's positions", []isa.Instruction{mm(isa.FlagConvolve, 8, isa.ConvDims(3, 9)), act}, false},
		{"after halt", []isa.Instruction{{Op: isa.OpHalt}, act}, true},
	} {
		p := &isa.Program{Instructions: c.ins}
		if err := accReadsWritten(p); (err == nil) != c.ok {
			t.Errorf("%s: walk says %v, want ok = %v", c.name, err, c.ok)
		}
	}
}

// TestRunsShareNoAccumulatorState is the property the device's kept
// accumulator file rests on: tiny models A, B, A run one after another on
// one functional device give, run by run, the host buffer, error and
// counters a fresh device gives — with the integrity checks off and at
// Detect, clean and with an accumulator or processing-element upset queued
// before the first two runs. A program that read a register it had not
// written would see what the previous program left there.
func TestRunsShareNoAccumulatorState(t *testing.T) {
	names := models.Names()
	type prepared struct {
		art    *compiler.Artifact
		packed []int8
	}
	progs := make(map[string]prepared, len(names))
	for _, name := range names {
		art, _, qin := functionalSetup(t, name)
		packed, err := compiler.PackInput(art, qin)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = prepared{art, packed}
	}
	flips := []struct {
		name string
		f    []Flip
	}{
		{"clean", nil},
		{"acc", []Flip{{Target: FlipAcc, Addr: 31, Bit: 3}}},
		{"pe", []Flip{{Target: FlipPE, Addr: 97, Bit: 17}}},
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, level := range []IntegrityLevel{IntegrityOff, IntegrityDetect} {
		cfg := DefaultConfig()
		cfg.Functional = true
		cfg.Parallelism = 1
		cfg.Integrity = level
		newDev := func() *Device {
			dev, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return dev
		}
		for _, fl := range flips {
			for i, a := range names {
				b := names[(i+1)%len(names)]
				dev := newDev()
				for run, name := range []string{a, b, a} {
					p := progs[name]
					queue := func(d *Device) {
						if run < 2 {
							for _, f := range fl.f {
								d.inject(f)
							}
						}
					}
					fresh := newDev()
					queue(fresh)
					wantHost := slices.Clone(p.packed)
					wantC, wantErr := fresh.Run(p.art.Program, wantHost)
					queue(dev)
					host := slices.Clone(p.packed)
					c, err := dev.Run(p.art.Program, host)
					if errText(err) != errText(wantErr) || c != wantC || !slices.Equal(host, wantHost) {
						t.Fatalf("%v %s: %s after %v differs from a fresh device's (err %v, fresh %v; counters equal %v)",
							level, fl.name, name, []string{a, b, a}[:run], err, wantErr, c == wantC)
					}
				}
			}
		}
	}
}
