// The device's end-to-end data-integrity layer: ABFT checksum verification
// on every matmul output row, CRC/parity sidecar checks at each storage
// boundary (weight DRAM, weight FIFO, Unified Buffer, accumulators), PCIe
// frame checks on host DMA, and the deterministic bit-flip injection seams
// the fault package drives. The paper's TPU was built for user-facing
// serving; silent data corruption in that setting is an availability bug,
// and this file models the machinery a production part would carry to turn
// silent corruption into detected — and where algebra allows, corrected —
// events.
package tpu

import (
	"errors"
	"fmt"
	"sync"

	"tpusim/internal/integrity"
	"tpusim/internal/isa"
	"tpusim/internal/pcie"
)

// IntegrityLevel selects how much of the integrity machinery a device runs.
type IntegrityLevel int

const (
	// IntegrityOff runs the bare datapath: flips injected through the fault
	// seams propagate silently (the baseline an SDC campaign measures
	// against).
	IntegrityOff IntegrityLevel = iota
	// IntegrityDetect enables every check — ABFT on matmul rows, CRC on
	// weight DRAM/FIFO/UB, accumulator parity, PCIe frames — and fails the
	// run with an SDCError on any violation. Timing charges the two ABFT
	// checksum columns' 2/256 array occupancy.
	IntegrityDetect
	// IntegrityCorrect additionally repairs what can be repaired in place:
	// ABFT-localized output elements are corrected algebraically (falling
	// back to recomputing the row against the resident tile), and corrupt
	// weight tiles are repaired from the golden image at fetch. Corruption
	// with no clean source on-device (UB activations, accumulators) still
	// fails the run for a clean upstream retry.
	IntegrityCorrect
)

// String renders the level for logs and metrics labels.
func (l IntegrityLevel) String() string {
	switch l {
	case IntegrityOff:
		return "off"
	case IntegrityDetect:
		return "detect"
	case IntegrityCorrect:
		return "correct"
	default:
		return fmt.Sprintf("IntegrityLevel(%d)", int(l))
	}
}

// SDCError is a detected silent-data-corruption event: an integrity check
// caught state that no legitimate write produced. It is the device's
// "machine check" — the run that observes it has not shipped corrupt
// output, so upstream layers may retry it cleanly.
type SDCError struct {
	// Unit names the structure that failed its check (weight-dram,
	// weight-fifo, unified-buffer, accumulators, matrix-unit, pcie-in/out).
	Unit string
	// Detail is the human-readable specifics.
	Detail string
}

func (e *SDCError) Error() string {
	return fmt.Sprintf("tpu: silent data corruption in %s: %s", e.Unit, e.Detail)
}

// IsSDC reports whether err is (or wraps) a detected-corruption error.
func IsSDC(err error) bool {
	var s *SDCError
	return errors.As(err, &s)
}

// FlipTarget selects which structure a fault-injected bit flip lands in.
type FlipTarget uint8

const (
	// FlipUB upsets one Unified Buffer SRAM bit, mapped into the written
	// extent so it lands in bytes a program actually uses.
	FlipUB FlipTarget = iota
	// FlipWeights upsets one bit of the live weight DRAM image; it persists
	// across runs until a scrub repairs it from the golden copy.
	FlipWeights
	// FlipAcc upsets one accumulator SRAM bit in a freshly written register.
	FlipAcc
	// FlipPE upsets one bit of a matmul partial sum between the array and
	// the accumulators — a processing-element logic upset.
	FlipPE
)

// String renders the target as the fault plan's kind suffix.
func (t FlipTarget) String() string {
	switch t {
	case FlipUB:
		return "ub"
	case FlipWeights:
		return "weights"
	case FlipAcc:
		return "acc"
	case FlipPE:
		return "pe"
	default:
		return fmt.Sprintf("FlipTarget(%d)", int(t))
	}
}

// Flip is one queued bit flip. Addr is a raw draw the device maps into the
// target structure's live extent at the flip's deterministic application
// point, so a logged (Target, Addr, Bit) triple replays exactly.
type Flip struct {
	Target FlipTarget
	Addr   uint64
	Bit    uint8
}

// IntegrityStats is the device-lifetime integrity ledger; unlike Counters
// it survives reset() and accumulates across every run and scrub pass the
// device ever served.
type IntegrityStats struct {
	// Checks counts integrity checks executed.
	Checks int64
	// Detected counts checks that caught corruption.
	Detected int64
	// Corrected counts in-place repairs (ABFT algebraic corrections and
	// fetch-time weight-tile repairs).
	Corrected int64
	// Recomputed counts matmul rows recomputed after ABFT flagged damage
	// algebra could not localize.
	Recomputed int64
	// ScrubRepairs counts weight tiles the background scrubber repaired
	// from the golden image.
	ScrubRepairs int64
}

// Add merges another ledger into this one (the driver-level aggregation).
func (s *IntegrityStats) Add(o IntegrityStats) {
	s.Checks += o.Checks
	s.Detected += o.Detected
	s.Corrected += o.Corrected
	s.Recomputed += o.Recomputed
	s.ScrubRepairs += o.ScrubRepairs
}

// integrityLedger is the mutex-guarded lifetime ledger. It is allocated
// once per device (never reallocated by reset), so metrics collectors may
// read IntegrityStats concurrently with runs: the run path accumulates in
// the per-run Counters and flushes here once per run, keeping the hot
// check loop lock-free.
type integrityLedger struct {
	mu sync.Mutex
	s  IntegrityStats
}

// IntegrityStats returns the device's lifetime ledger. Safe to call
// concurrently with Run.
func (d *Device) IntegrityStats() IntegrityStats {
	d.ledger.mu.Lock()
	defer d.ledger.mu.Unlock()
	return d.ledger.s
}

// flushInteg folds the finished (or failed) run's integrity counters into
// the lifetime ledger. Called once per run, after the per-run counters are
// final.
func (d *Device) flushInteg() {
	c := d.c
	if c.IntegrityChecks|c.IntegrityDetected|c.IntegrityCorrected|c.TilesRecomputed == 0 {
		return
	}
	d.ledger.mu.Lock()
	d.ledger.s.Checks += c.IntegrityChecks
	d.ledger.s.Detected += c.IntegrityDetected
	d.ledger.s.Corrected += c.IntegrityCorrected
	d.ledger.s.Recomputed += c.TilesRecomputed
	d.ledger.mu.Unlock()
}

// Scrub runs one pass of the weight-DRAM scrubber: every tile a flip has
// copied is CRC-checked and read from the golden image again. Returns tiles
// scanned and repaired; devices that have not run a functional program yet
// scan nothing. Not safe concurrently with Run.
func (d *Device) Scrub() (scanned, repaired int) {
	if d.gw == nil {
		return 0, 0
	}
	scanned, repaired = d.gw.Scrub()
	d.ledger.mu.Lock()
	d.ledger.s.ScrubRepairs += int64(repaired)
	d.ledger.mu.Unlock()
	return scanned, repaired
}

// WeightTileCopies returns how many tiles of the live weight DRAM hold bytes
// of their own — upset by a flip and not yet repaired; every other tile reads
// the program's golden image. Not safe concurrently with Run.
func (d *Device) WeightTileCopies() int {
	if d.gw == nil {
		return 0
	}
	return d.gw.Copies()
}

// inject queues a flip for the next run (see Invocation.Inject).
func (d *Device) inject(f Flip) { d.pendingFlips = append(d.pendingFlips, f) }

// flipQueued reports whether a pending flip is aimed at target.
func (d *Device) flipQueued(target FlipTarget) bool {
	for _, f := range d.pendingFlips {
		if f.Target == target {
			return true
		}
	}
	return false
}

// applyFlips applies and consumes every pending flip aimed at target.
func (d *Device) applyFlips(target FlipTarget, apply func(Flip)) {
	if len(d.pendingFlips) == 0 {
		return
	}
	kept := d.pendingFlips[:0]
	for _, f := range d.pendingFlips {
		if f.Target == target {
			apply(f)
		} else {
			kept = append(kept, f)
		}
	}
	d.pendingFlips = kept
}

// note* bump the per-run counters; flushInteg folds them into the lifetime
// ledger when the run ends, keeping the per-row check loop lock-free.
func (d *Device) noteChecks(n int64) { d.c.IntegrityChecks += n }
func (d *Device) noteDetected()      { d.c.IntegrityDetected++ }
func (d *Device) noteCorrected()     { d.c.IntegrityCorrected++ }
func (d *Device) noteRecomputed()    { d.c.TilesRecomputed++ }

// fetchGuardedTile is the integrity-aware weight fetch: the per-tile DRAM
// CRC is checked before the bytes enter the FIFO. Detect fails the run;
// Correct repairs the tile — it reads the golden image again — and proceeds.
// The FIFO entry it returns is a window of the tile's live bytes — the DRAM
// bytes by address, copied nowhere between Weight Memory and the multiply.
// Within a run nothing changes them: the live image is written only by
// FlipBit at run start and repaired only by RepairTile here, on a tile that
// no FIFO entry or array tile of this run views yet.
func (d *Device) fetchGuardedTile(addr uint64) ([]int8, error) {
	if d.cfg.Integrity != IntegrityOff {
		d.noteChecks(1)
		if !d.gw.VerifyTile(addr) {
			d.noteDetected()
			if d.cfg.Integrity < IntegrityCorrect {
				return nil, &SDCError{Unit: "weight-dram",
					Detail: fmt.Sprintf("tile %#x failed CRC", addr)}
			}
			if d.gw.RepairTile(addr) {
				d.noteCorrected()
			}
		}
	}
	view, ok := d.gw.TileView(addr)
	if !ok {
		// Program.Validate keeps every ReadWeights inside the image.
		return nil, fmt.Errorf("tile %#x not covered by the weight image", addr)
	}
	return view, nil
}

// verifyFIFOTile re-checks a popped tile against the CRC sealed at push —
// the FIFO SRAM's transit guard.
func (d *Device) verifyFIFOTile(idx int, tile []int8) error {
	if d.cfg.Integrity == IntegrityOff || idx >= len(d.fifoCRC) {
		return nil
	}
	d.noteChecks(1)
	if integrity.CRC(tile) != d.fifoCRC[idx] {
		d.noteDetected()
		return &SDCError{Unit: "weight-fifo",
			Detail: fmt.Sprintf("tile %d failed CRC between push and pop", idx)}
	}
	return nil
}

// verifyUB checks the guarded UB rows covering [addr, addr+n). There is no
// on-device golden copy of activations, so even at the Correct level a hit
// fails the run — the clean repair is a retry from the host's inputs.
func (d *Device) verifyUB(addr uint32, n int, unit string) error {
	if d.cfg.Integrity == IntegrityOff || n <= 0 {
		return nil
	}
	d.noteChecks(1)
	if bad := d.ub.VerifyGuard(addr, n); bad != nil {
		d.noteDetected()
		return &SDCError{Unit: unit,
			Detail: fmt.Sprintf("UB blocks %v failed CRC under [%#x,+%d)", bad, addr, n)}
	}
	return nil
}

// verifyAcc checks accumulator parity over registers [idx, idx+n) — run
// before any read (Activate drain or accumulate read-modify-write), the
// points real parity SRAM checks on.
func (d *Device) verifyAcc(idx, n int) error {
	if d.cfg.Integrity == IntegrityOff || n <= 0 {
		return nil
	}
	d.noteChecks(1)
	if bad := d.acc.VerifyParity(idx, n); bad != nil {
		d.noteDetected()
		return &SDCError{Unit: "accumulators",
			Detail: fmt.Sprintf("registers %v failed parity", bad)}
	}
	return nil
}

// verifySealed checks DMA'd bytes that landed at dst against the CRC
// sealed over the source before the move — the PCIe frame check.
func (d *Device) verifySealed(fr pcie.Frame, dst []int8, unit string) error {
	d.noteChecks(1)
	if err := (pcie.Frame{Payload: dst, CRC: fr.CRC}).Verify(); err != nil {
		d.noteDetected()
		return &SDCError{Unit: unit, Detail: err.Error()}
	}
	return nil
}

// verifyMatmulABFT checks every output row of one MatrixMultiply against
// the resident tile's checksum columns. At Detect any violation fails the
// run. At Correct a localized single element is repaired algebraically;
// damage that does not localize recomputes the row against the resident
// tile (whose simulated cells are upset-free — PE flips model transient
// logic faults downstream of the array).
func (d *Device) verifyMatmulABFT(s *matmulScratch, rows int) error {
	if d.cfg.Integrity == IntegrityOff {
		return nil
	}
	cs := d.arr.Active().Checksums()
	for i := 0; i < rows; i++ {
		act := (*[isa.MatrixDim]int8)(s.in[i*isa.MatrixDim:])
		d.noteChecks(1)
		ck := cs.VerifyRow(act, &s.out[i])
		if ck.OK {
			continue
		}
		d.noteDetected()
		if d.cfg.Integrity < IntegrityCorrect {
			return &SDCError{Unit: "matrix-unit",
				Detail: fmt.Sprintf("output row %d failed ABFT (col %d, delta %d)", i, ck.Col, ck.Delta)}
		}
		if ck.Col >= 0 {
			if ok, err := cs.CorrectRow(act, &s.out[i], ck); err == nil && ok {
				d.noteCorrected()
				continue
			}
		}
		ref, err := d.arr.MulRow(act)
		if err != nil {
			return err
		}
		s.out[i] = *ref
		d.noteRecomputed()
		if !cs.VerifyRow(act, &s.out[i]).OK {
			return &SDCError{Unit: "matrix-unit",
				Detail: fmt.Sprintf("row %d failed ABFT after recomputation (persistent fault)", i)}
		}
	}
	return nil
}
