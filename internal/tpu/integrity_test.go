package tpu

import (
	"context"
	"math"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/systolic/kerneltest"
	"tpusim/internal/tensor"
)

// integrityRig is one compiled random model plus a fresh host buffer
// factory, so repeated runs start from identical inputs.
type integrityRig struct {
	art  *compiler.Artifact
	host []int8
}

func newIntegrityRig(t *testing.T, seed int64) *integrityRig {
	t.Helper()
	m := randomModel(seed)
	p := nn.InitRandom(m, seed+1, 0.2)
	in := tensor.NewF32(m.Batch, m.InputElems())
	in.FillRandom(seed+2, 1)
	qm, err := nn.QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	host, err := compiler.PackInput(art, qm.QuantizeInput(in))
	if err != nil {
		t.Fatal(err)
	}
	return &integrityRig{art: art, host: host}
}

// accumulateFirst makes the rig's first MatrixMultiply an accumulating one.
// It lands on registers the run's reset has zeroed, so the outputs are the
// same, but a PE flip — applied at the first MatrixMultiply — now hits an
// instruction that adds into the accumulators.
func (r *integrityRig) accumulateFirst(t *testing.T) {
	t.Helper()
	for i := range r.art.Program.Instructions {
		if in := &r.art.Program.Instructions[i]; in.Op == isa.OpMatrixMultiply {
			in.Flags |= isa.FlagAccumulate
			return
		}
	}
	t.Fatal("program has no MatrixMultiply")
}

// peRegister returns, after a run on dev, the accumulator register a PE
// flip f lands in: the flip hits the run's first MatrixMultiply.
func (r *integrityRig) peRegister(t *testing.T, dev *Device, f Flip) *[isa.MatrixDim]int32 {
	t.Helper()
	for _, in := range r.art.Program.Instructions {
		if in.Op == isa.OpMatrixMultiply {
			reg, err := dev.acc.Load(int(in.AccAddr) + int(f.Addr%uint64(in.Len)))
			if err != nil {
				t.Fatal(err)
			}
			return reg
		}
	}
	t.Fatal("program has no MatrixMultiply")
	return nil
}

// device builds a functional device at the level whose hook injects flips
// into every invocation.
func (r *integrityRig) device(t *testing.T, level IntegrityLevel, flips []Flip) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.Parallelism = 1
	cfg.Integrity = level
	if flips != nil {
		cfg.Hook = func(ctx context.Context, inv Invocation) (Counters, error) {
			for _, f := range flips {
				inv.Inject(f)
			}
			return inv.Run()
		}
	}
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// run executes once against a fresh copy of the packed input and returns
// the host buffer afterwards.
func (r *integrityRig) run(t *testing.T, dev *Device) ([]int8, Counters, error) {
	t.Helper()
	host := make([]int8, len(r.host))
	copy(host, r.host)
	c, err := dev.Run(r.art.Program, host)
	return host, c, err
}

// TestIntegrityCleanRunsUnchanged: with no faults, every integrity level
// produces bit-identical outputs; Detect/Correct execute checks and catch
// nothing, and charge the ABFT occupancy in timing.
func TestIntegrityCleanRunsUnchanged(t *testing.T) {
	r := newIntegrityRig(t, 11)
	ref, refC, err := r.run(t, r.device(t, IntegrityOff, nil))
	if err != nil {
		t.Fatal(err)
	}
	if refC.IntegrityChecks != 0 {
		t.Fatalf("IntegrityOff ran %d checks", refC.IntegrityChecks)
	}
	for _, level := range []IntegrityLevel{IntegrityDetect, IntegrityCorrect} {
		out, c, err := r.run(t, r.device(t, level, nil))
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("%v: output byte %d differs on a clean run", level, i)
			}
		}
		if c.IntegrityChecks == 0 {
			t.Fatalf("%v: no checks executed", level)
		}
		if c.IntegrityDetected != 0 || c.IntegrityCorrected != 0 || c.TilesRecomputed != 0 {
			t.Fatalf("%v: clean run reported corruption: %+v", level, c)
		}
		if c.Cycles <= refC.Cycles {
			t.Fatalf("%v: ABFT occupancy not charged (%d <= %d cycles)", level, c.Cycles, refC.Cycles)
		}
		if over := float64(c.Cycles-refC.Cycles) / float64(refC.Cycles); over > 0.10 {
			t.Fatalf("%v: %.1f%% cycle overhead exceeds 10%%", level, over*100)
		}
	}
}

// TestIntegrityDetectsEveryFlipKind: a single injected flip in any target
// structure fails a Detect-level run with an SDCError, while an Off-level
// run completes silently.
func TestIntegrityDetectsEveryFlipKind(t *testing.T) {
	flips := []struct {
		name       string
		f          Flip
		accumulate bool // the flip hits an accumulating MatrixMultiply
	}{
		{"ub", Flip{Target: FlipUB, Addr: 12345, Bit: 4}, false},
		{"weights", Flip{Target: FlipWeights, Addr: 777, Bit: 6}, false},
		{"acc", Flip{Target: FlipAcc, Addr: 31, Bit: 3}, false},
		{"pe", Flip{Target: FlipPE, Addr: 97, Bit: 17}, false},
		{"pe-accumulate", Flip{Target: FlipPE, Addr: 97, Bit: 17}, true},
	}
	for _, tc := range flips {
		f := tc.f
		t.Run(tc.name, func(t *testing.T) {
			r := newIntegrityRig(t, 23)
			if tc.accumulate {
				r.accumulateFirst(t)
			}
			dev := r.device(t, IntegrityOff, []Flip{f})
			_, c, err := r.run(t, dev)
			if err != nil {
				t.Fatalf("Off-level run failed: %v", err)
			} else if c.IntegrityDetected != 0 {
				t.Fatalf("Off-level run detected corruption")
			}
			if f.Target == FlipPE {
				// The upset landed, silently: the register the flipped
				// partial sum went to differs from a clean run's.
				clean := r.device(t, IntegrityOff, nil)
				if _, _, err := r.run(t, clean); err != nil {
					t.Fatal(err)
				}
				if reg, ref := r.peRegister(t, dev, f), r.peRegister(t, clean, f); *reg == *ref {
					t.Fatalf("Off-level flip-%s left its register as a clean run's", tc.name)
				}
			}
			_, _, err = r.run(t, r.device(t, IntegrityDetect, []Flip{f}))
			if err == nil {
				t.Fatalf("flip-%s undetected at Detect", tc.name)
			}
			if !IsSDC(err) {
				t.Fatalf("flip-%s produced non-SDC error: %v", tc.name, err)
			}
		})
	}
}

// TestIntegrityCorrectsInPlace: PE and weight flips are repaired at the
// Correct level without failing the run, and outputs are bit-exact to a
// clean run. UB and accumulator corruption has no on-device golden source,
// so Correct still fails those runs cleanly — and a retry (on a device
// whose hook no longer injects) restores bit-exact outputs.
func TestIntegrityCorrectsInPlace(t *testing.T) {
	r := newIntegrityRig(t, 37)
	ref, _, err := r.run(t, r.device(t, IntegrityOff, nil))
	if err != nil {
		t.Fatal(err)
	}

	// The PE flip once more, on a rig whose first MatrixMultiply — the one
	// the flip hits — accumulates: the staged partial sums are corrected
	// before they are added into the registers.
	acc := newIntegrityRig(t, 37)
	acc.accumulateFirst(t)
	for _, c := range []struct {
		name string
		r    *integrityRig
		f    Flip
	}{
		{"pe", r, Flip{Target: FlipPE, Addr: 5, Bit: 13}},
		{"weights", r, Flip{Target: FlipWeights, Addr: 4321, Bit: 1}},
		{"pe-accumulate", acc, Flip{Target: FlipPE, Addr: 5, Bit: 13}},
	} {
		out, cs, err := c.r.run(t, c.r.device(t, IntegrityCorrect, []Flip{c.f}))
		if err != nil {
			t.Fatalf("flip-%s not corrected: %v", c.name, err)
		}
		if cs.IntegrityDetected == 0 || cs.IntegrityCorrected+cs.TilesRecomputed == 0 {
			t.Fatalf("flip-%s: no correction recorded: %+v", c.name, cs)
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("flip-%s: corrected output byte %d differs from clean run", c.name, i)
			}
		}
	}

	for _, f := range []Flip{
		{Target: FlipUB, Addr: 999, Bit: 2},
		{Target: FlipAcc, Addr: 7, Bit: 9},
	} {
		dev := r.device(t, IntegrityCorrect, []Flip{f})
		if _, _, err := r.run(t, dev); !IsSDC(err) {
			t.Fatalf("flip-%s at Correct: want SDC failure, got %v", f.Target, err)
		}
		// Retry without injection on the same device: clean and bit-exact.
		clean := r.device(t, IntegrityCorrect, nil)
		out, _, err := r.run(t, clean)
		if err != nil {
			t.Fatalf("flip-%s retry failed: %v", f.Target, err)
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("flip-%s: retry output differs from clean run", f.Target)
			}
		}
	}
}

// TestIntegrityWeightCorruptionPersistsUntilScrub: at IntegrityOff a weight
// flip silently persists in the live DRAM across runs of the program; a
// scrub pass repairs it from the golden image and subsequent runs are
// bit-exact clean again.
func TestIntegrityWeightCorruptionPersistsUntilScrub(t *testing.T) {
	r := newIntegrityRig(t, 53)
	cleanDev := r.device(t, IntegrityOff, nil)
	ref, _, err := r.run(t, cleanDev)
	if err != nil {
		t.Fatal(err)
	}

	// One device; a burst of high-magnitude weight flips on the first run
	// only (several sign-bit flips so at least one survives requantization).
	injected := false
	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.Parallelism = 1
	cfg.Hook = func(ctx context.Context, inv Invocation) (Counters, error) {
		if !injected {
			injected = true
			for k := uint64(0); k < 8; k++ {
				inv.Inject(Flip{Target: FlipWeights, Addr: 2048 + k*4099, Bit: 7})
			}
		}
		return inv.Run()
	}
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out1, _, err := r.run(t, dev)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := r.run(t, dev) // no injection this run; corruption persists
	if err != nil {
		t.Fatal(err)
	}
	differs := func(a []int8) bool {
		for i := range ref {
			if a[i] != ref[i] {
				return true
			}
		}
		return false
	}
	if !differs(out1) || !differs(out2) {
		t.Skip("injected weight flip did not affect this model's output; nothing to scrub-test")
	}
	scanned, repaired := dev.Scrub()
	if scanned == 0 || repaired < 1 || repaired > 8 {
		t.Fatalf("scrub scanned %d repaired %d, want >0 and 1..8", scanned, repaired)
	}
	if st := dev.IntegrityStats(); st.ScrubRepairs != int64(repaired) {
		t.Fatalf("lifetime ScrubRepairs = %d, want %d", st.ScrubRepairs, repaired)
	}
	out3, _, err := r.run(t, dev)
	if err != nil {
		t.Fatal(err)
	}
	if differs(out3) {
		t.Fatal("output still corrupt after scrub")
	}
	if _, repaired := dev.Scrub(); repaired != 0 {
		t.Fatalf("second scrub repaired %d tiles", repaired)
	}
}

// TestIntegrityTimingOverheadUnderTenPercent pins the tentpole's timing
// bound on the production (timing-only) models: Detect-level ABFT occupancy
// adds under 10% cycles on every app.
func TestIntegrityTimingOverheadUnderTenPercent(t *testing.T) {
	for _, b := range models.All() {
		art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse})
		if err != nil {
			t.Fatal(err)
		}
		run := func(level IntegrityLevel) int64 {
			cfg := DefaultConfig()
			cfg.Integrity = level
			dev, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := dev.Run(art.Program, nil)
			if err != nil {
				t.Fatal(err)
			}
			return c.Cycles
		}
		off, detect := run(IntegrityOff), run(IntegrityDetect)
		if detect < off {
			t.Fatalf("%s: Detect is faster than Off (%d < %d)", b.Model.Name, detect, off)
		}
		if over := float64(detect-off) / float64(off); over >= 0.10 {
			t.Fatalf("%s: Detect adds %.1f%% cycles, want <10%%", b.Model.Name, over*100)
		}
	}
}

// TestAccumulateNearRailSaturates: an accumulating MatrixMultiply whose
// registers an upset has left within 2^22 of the int32 rail must add the way
// the accumulators do, saturating (fixed.SatAdd32), not the way the array's
// direct write into them would, wrapping. A FlipAcc at IntegrityOff sets the
// sign bit of registers the first of two weight-tile rows has written, which
// moves a sum p >= 0 to MinInt32+p; the second tile row's sum q then
// saturates wherever p+q < 0.
func TestAccumulateNearRailSaturates(t *testing.T) {
	m := &nn.Model{Name: "rail", Class: nn.MLP, Batch: 16, TimeSteps: 1,
		Layers: []nn.Layer{{Kind: nn.FC, In: 512, Out: 16, Act: fixed.Identity}}}
	p := nn.InitRandom(m, 3, 0.2)
	in := tensor.NewF32(m.BatchInputShape()...)
	in.FillRandom(4, 1)
	qm, err := nn.QuantizeModel(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	qin := qm.QuantizeInput(in)
	var first *isa.Instruction
	for i := range art.Program.Instructions {
		if in := &art.Program.Instructions[i]; in.Op == isa.OpMatrixMultiply {
			first = in
			break
		}
	}
	// partial is weight-tile row rt's sum for output (r, j).
	w := qm.Weights[0]
	partial := func(rt, r, j int) int32 {
		var s int32
		for k := rt * isa.MatrixDim; k < (rt+1)*isa.MatrixDim; k++ {
			s += int32(qin.Data[r*m.Layers[0].In+k]) * int32(w.Data[k*m.Layers[0].Out+j])
		}
		return s
	}
	// Flip the sign bit of every lane where the rail is crossed, so the
	// staged add and a wrapping one would part.
	rows := m.Batch
	type lane struct{ r, j int }
	var hit []lane
	var flips []Flip
	for r := 0; r < rows; r++ {
		for j := 0; j < m.Layers[0].Out; j++ {
			if p, q := partial(0, r, j), partial(1, r, j); p >= 0 && p+q < 0 {
				hit = append(hit, lane{r, j})
				flips = append(flips, Flip{Target: FlipAcc, Addr: uint64(r + rows*(4*j+3)), Bit: 7})
			}
		}
	}
	if len(hit) == 0 {
		t.Fatal("no lane crosses the rail; pick another seed")
	}
	host, err := compiler.PackInput(art, qin)
	if err != nil {
		t.Fatal(err)
	}
	kerneltest.Each(t, func(t *testing.T) {
		r := &integrityRig{art: art, host: host}
		dev := r.device(t, IntegrityOff, flips)
		if _, _, err := r.run(t, dev); err != nil {
			t.Fatal(err)
		}
		for _, l := range hit {
			reg, err := dev.acc.Load(int(first.AccAddr) + l.r)
			if err != nil {
				t.Fatal(err)
			}
			p, q := partial(0, l.r, l.j), partial(1, l.r, l.j)
			if want := fixed.SatAdd32(p^math.MinInt32, q); reg[l.j] != want {
				t.Fatalf("row %d lane %d: %d (sign-flipped) + %d = %d, want SatAdd32's %d",
					l.r, l.j, p^math.MinInt32, q, reg[l.j], want)
			}
		}
	})
}
