package tpu

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/integrity"
	"tpusim/internal/isa"
	"tpusim/internal/systolic/kerneltest"
)

// The aliasing invariant these tests pin: a Weight FIFO entry and the tile
// loaded from it view the live weight image's bytes, and within a run
// nothing writes through a view — the live image is written only by FlipBit
// at run start and by RepairTile on a tile no FIFO entry or array tile of
// this run views yet; the program's golden WeightImage is never written.

// runCopyOracle is run with the weight path the views replaced, kept as the
// oracle: every tile ReadWeights fetches is copied out of weight DRAM into a
// buffer of its own as it enters the FIFO (what the copying fetch did for
// every tile), so the array multiplies a snapshot taken at fetch time rather than
// the live bytes. (The old second copy, FIFO buffer into the tile's own
// array, snapshotted a buffer nothing writes and is not reproduced.) The two
// paths agree exactly when nothing writes the live image between a tile's
// fetch and its last multiply.
func (d *Device) runCopyOracle(p *isa.Program, host []int8) (Counters, error) {
	if err := d.start(p, host); err != nil {
		return Counters{}, err
	}
	defer d.flushInteg()
	for i := range p.Instructions {
		in := &p.Instructions[i]
		for rep := 0; rep < in.Times(); rep++ {
			fetched := len(d.fifoTiles)
			if err := d.exec(in); err != nil {
				return Counters{}, fmt.Errorf("tpu: instruction %d (%s): %w", i, in, err)
			}
			for k := fetched; k < len(d.fifoTiles); k++ {
				d.fifoTiles[k] = slices.Clone(d.fifoTiles[k])
			}
			d.c.Instructions++
			if in.Op == isa.OpHalt {
				d.finish()
				return d.c, nil
			}
		}
	}
	d.finish()
	return d.c, nil
}

// aliasRig is one compiled tiny model, its packed input and the CRC of its
// golden weight image at compile time.
type aliasRig struct {
	art    *compiler.Artifact
	packed []int8
	golden uint32
}

func newAliasRig(t testing.TB, model string) *aliasRig {
	t.Helper()
	art, _, qin := functionalSetup(t, model)
	packed, err := compiler.PackInput(art, qin)
	if err != nil {
		t.Fatal(err)
	}
	return &aliasRig{art: art, packed: packed, golden: integrity.CRC(art.Program.WeightImage)}
}

func (r *aliasRig) device(t testing.TB, level IntegrityLevel) *Device {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.Parallelism = 2 // MultiplyInto's workers read the view concurrently
	cfg.Integrity = level
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// requireGoldenUntouched fails if the program's weight image has changed
// since it was compiled.
func (r *aliasRig) requireGoldenUntouched(t testing.TB) {
	t.Helper()
	if integrity.CRC(r.art.Program.WeightImage) != r.golden {
		t.Fatal("the program's golden WeightImage was written")
	}
}

// requireLiveEqualsGolden fails unless the device's live weight image is
// byte-identical to the program's golden one.
func (r *aliasRig) requireLiveEqualsGolden(t testing.TB, d *Device) {
	t.Helper()
	p := r.art.Program
	for off := 0; off < len(p.WeightImage); off += isa.WeightTileBytes {
		live, ok := d.gw.TileView(p.WeightBase + uint64(off))
		if !ok {
			t.Fatalf("tile at %#x of a tile-aligned image has no view", off)
		}
		if !slices.Equal(live, p.WeightImage[off:off+isa.WeightTileBytes]) {
			t.Fatalf("live weight tile at %#x differs from golden", off)
		}
	}
}

var integrityLevels = []IntegrityLevel{IntegrityOff, IntegrityDetect, IntegrityCorrect}

// TestViewsMatchCopyOracle is the differential test of the view path: two
// devices take the same seeded sequence of runs — random bursts of weight,
// UB, accumulator and PE flips, an occasional scrub — one through run, one
// through the copy oracle, at every integrity level and under each kernel.
// Outputs, counters, the lifetime ledger and errors must be identical run
// for run, and the golden image untouched at the end.
func TestViewsMatchCopyOracle(t *testing.T) {
	kerneltest.Each(t, func(t *testing.T) {
		for _, model := range []string{"MLP0", "LSTM0", "CNN0"} {
			r := newAliasRig(t, model)
			for _, level := range integrityLevels {
				view, oracle := r.device(t, level), r.device(t, level)
				rng := rand.New(rand.NewSource(int64(len(model)) + int64(level)*977))
				for run := 0; run < 14; run++ {
					if run%5 == 4 {
						vs, vr := view.Scrub()
						os, or := oracle.Scrub()
						if vs != os || vr != or {
							t.Fatalf("%s/%v run %d: scrub %d/%d, oracle %d/%d", model, level, run, vs, vr, os, or)
						}
					}
					view.pendingFlips, oracle.pendingFlips = view.pendingFlips[:0], oracle.pendingFlips[:0]
					for n := rng.Intn(4); n > 0; n-- {
						f := Flip{Target: FlipTarget(rng.Intn(4)), Addr: rng.Uint64(), Bit: uint8(rng.Intn(32))}
						view.inject(f)
						oracle.inject(f)
					}
					vHost, oHost := slices.Clone(r.packed), slices.Clone(r.packed)
					vc, vErr := view.run(r.art.Program, vHost)
					oc, oErr := oracle.runCopyOracle(r.art.Program, oHost)
					if fmt.Sprint(vErr) != fmt.Sprint(oErr) {
						t.Fatalf("%s/%v run %d: error %v, oracle %v", model, level, run, vErr, oErr)
					}
					if vc != oc {
						t.Fatalf("%s/%v run %d: counters\n%+v\noracle\n%+v", model, level, run, vc, oc)
					}
					if !slices.Equal(vHost, oHost) {
						t.Fatalf("%s/%v run %d: outputs differ from the copy oracle's", model, level, run)
					}
					if vs, os := view.IntegrityStats(), oracle.IntegrityStats(); vs != os {
						t.Fatalf("%s/%v run %d: ledger %+v, oracle %+v", model, level, run, vs, os)
					}
				}
				r.requireGoldenUntouched(t)
			}
		}
	})
}

// TestCleanRunsLeaveWeightImagesUntouched: clean runs write neither image —
// after several at every integrity level the live image still equals golden
// and golden still hashes as compiled — and what does write the live image
// between runs is seen by the next one through the same views: a burst of
// flips changes the output (or fails, or is repaired), a scrub restores it.
func TestCleanRunsLeaveWeightImagesUntouched(t *testing.T) {
	r := newAliasRig(t, "MLP0")
	for _, level := range integrityLevels {
		dev := r.device(t, level)
		run := func() ([]int8, error) {
			host := slices.Clone(r.packed)
			_, err := dev.Run(r.art.Program, host)
			return host, err
		}
		var clean []int8
		for i := 0; i < 5; i++ {
			out, err := run()
			if err != nil {
				t.Fatalf("%v: clean run %d: %v", level, i, err)
			}
			if clean == nil {
				clean = out
			} else if !slices.Equal(out, clean) {
				t.Fatalf("%v: clean run %d differs from the first", level, i)
			}
		}
		r.requireLiveEqualsGolden(t, dev)
		r.requireGoldenUntouched(t)

		// Sign bits on the diagonal of the last layer's tile — the tile the
		// array still holds from the previous run.
		last := uint64(r.art.Program.WeightTiles()-1) * isa.WeightTileBytes
		for k := uint64(0); k < 8; k++ {
			dev.gw.FlipBit(last+k*isa.MatrixDim+k, 7)
		}
		out, err := run()
		switch level {
		case IntegrityOff:
			if err != nil || slices.Equal(out, clean) {
				t.Fatalf("Off: flips between runs not seen by the next run (err %v)", err)
			}
		case IntegrityDetect:
			if !IsSDC(err) {
				t.Fatalf("Detect: want an SDCError, got %v", err)
			}
		case IntegrityCorrect:
			if err != nil || !slices.Equal(out, clean) {
				t.Fatalf("Correct: flips between runs not repaired at fetch (err %v)", err)
			}
		}
		if _, repaired := dev.Scrub(); (repaired == 0) != (level == IntegrityCorrect) {
			t.Fatalf("%v: scrub repaired %d tiles", level, repaired)
		}
		if out, err := run(); err != nil || !slices.Equal(out, clean) {
			t.Fatalf("%v: the scrub between runs was not seen by the next run (err %v)", level, err)
		}
		r.requireLiveEqualsGolden(t, dev)
		r.requireGoldenUntouched(t)
	}
}

// allocBytesPerRun returns the mean bytes one call of run allocates.
func allocBytesPerRun(runs int, run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCleanRunAfterFailedRunAllocatesNothing: a run that fails mid-program
// leaves tiles it fetched and never popped in the FIFO. They are views, so
// the next run has nothing to take back and nothing to replace — the
// zero-allocation steady state holds through a fault campaign. The program
// fetches three tiles at once and a UB flip fails the first matmul.
func TestCleanRunAfterFailedRunAllocatesNothing(t *testing.T) {
	load := isa.FlagLoadTile
	p := funcProg(
		isa.Instruction{Op: isa.OpReadHostMemory, Addr: 0, UBAddr: 0, Len: isa.MatrixDim},
		isa.Instruction{Op: isa.OpSync},
		isa.Instruction{Op: isa.OpReadWeights, Addr: 0, TileCount: 3},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: load, Len: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: load | isa.FlagAccumulate, Len: 1},
		isa.Instruction{Op: isa.OpMatrixMultiply, Flags: load | isa.FlagAccumulate, Len: 1},
		isa.Instruction{Op: isa.OpActivate, UBAddr: 0x1000, Len: 1},
		isa.Instruction{Op: isa.OpSync},
		isa.Instruction{Op: isa.OpWriteHostMemory, Addr: isa.MatrixDim, UBAddr: 0x1000, Len: isa.MatrixDim},
	)
	p.WeightImage = make([]int8, 3*isa.WeightTileBytes)
	for i := range p.WeightImage {
		p.WeightImage[i] = int8(i % 7)
	}

	cfg := DefaultConfig()
	cfg.Functional = true
	cfg.Parallelism = 1
	cfg.Integrity = IntegrityDetect
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]int8, 2*isa.MatrixDim)
	run := func() error {
		for i := 0; i < isa.MatrixDim; i++ {
			host[i] = int8(i%5 - 2)
		}
		_, err := dev.run(p, host)
		return err
	}
	for i := 0; i < 3; i++ { // warm up: tiles, queues, accumulator blocks
		if err := run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		dev.inject(Flip{Target: FlipUB, Addr: 3, Bit: 6})
		if err := run(); !IsSDC(err) {
			t.Fatalf("want an SDCError from the UB flip, got %v", err)
		}
		if unpopped := len(dev.fifoTiles) - dev.tileHead; unpopped != 2 {
			t.Fatalf("the failed run left %d fetched tiles unpopped, want 2", unpopped)
		}
		perRun := allocBytesPerRun(1, func() {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		})
		if perRun > 16<<10 {
			t.Fatalf("the clean run after a failed one allocates %d B, want < 16 KiB", perRun)
		}
	}
}
