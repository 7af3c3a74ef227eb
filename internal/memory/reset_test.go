package memory

import (
	"math/bits"
	"math/rand"
	"testing"

	"tpusim/internal/isa"
)

// requireFreshAccumulators fails unless every register and parity word of a
// equals a freshly allocated file's.
func requireFreshAccumulators(t *testing.T, a *Accumulators, guarded bool) {
	t.Helper()
	fresh := NewAccumulators()
	if guarded {
		fresh.EnableGuard()
	}
	for i := range fresh.regs {
		if a.regs[i] != fresh.regs[i] {
			t.Fatalf("register %d differs from a fresh file after Reset", i)
		}
	}
	if len(a.parity) != len(fresh.parity) {
		t.Fatalf("parity sidecar has %d words, fresh has %d", len(a.parity), len(fresh.parity))
	}
	for i := range fresh.parity {
		if a.parity[i] != fresh.parity[i] {
			t.Fatalf("parity word %d = %#x after Reset, fresh %#x", i, a.parity[i], fresh.parity[i])
		}
	}
	if a.dirty != 0 {
		t.Fatalf("dirty mask %#x after Reset", a.dirty)
	}
}

// TestAccumulatorsResetEqualsFresh is the differential test of the dirty-
// block Reset: seeded random Store / StoreRows / Clear / FlipBit programs
// over both halves of the file, with and without parity, must leave nothing
// behind that a fresh file does not have. The same file is reused across
// programs, as a device reuses it across runs.
func TestAccumulatorsResetEqualsFresh(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		a := NewAccumulators()
		if guarded {
			a.EnableGuard()
		}
		rng := rand.New(rand.NewSource(41))
		var rows [9][isa.MatrixDim]int32
		for prog := 0; prog < 40; prog++ {
			for op := rng.Intn(12); op >= 0; op-- {
				for i := range rows {
					for j := range rows[i] {
						rows[i][j] = rng.Int31() - 1<<30
					}
				}
				// Compiled programs alternate halves; so do these.
				base := rng.Intn(2) * (isa.AccumulatorCount / 2)
				idx := base + rng.Intn(isa.AccumulatorCount/2-len(rows))
				if rng.Intn(8) == 0 {
					idx = isa.AccumulatorCount - len(rows) // ends at the last register
				}
				var err error
				switch rng.Intn(4) {
				case 0:
					err = a.Store(idx, &rows[0], rng.Intn(2) == 0)
				case 1:
					err = a.StoreRows(idx, rows[:1+rng.Intn(len(rows))], rng.Intn(2) == 0)
				case 2:
					err = a.Clear(idx, rng.Intn(len(rows)+1))
				case 3:
					a.FlipBit(rng.Intn(isa.AccumulatorCount), rng.Intn(isa.MatrixDim*4), uint8(rng.Intn(8)))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			a.Reset()
			requireFreshAccumulators(t, a, guarded)
		}
	}
}

// TestAccumulatorsDirtyMask pins the mask arithmetic: an empty range marks
// nothing, a range marks exactly the blocks it overlaps, and the whole file
// marks every block.
func TestAccumulatorsDirtyMask(t *testing.T) {
	a := NewAccumulators()
	if err := a.Clear(100, 0); err != nil {
		t.Fatal(err)
	}
	if a.dirty != 0 {
		t.Fatalf("Clear(100, 0) dirtied %#x", a.dirty)
	}
	var rows [8][isa.MatrixDim]int32
	if err := a.StoreRows(0, rows[:], false); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreRows(2048, rows[:], false); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1) | 1<<(2048/accBlock); a.dirty != want {
		t.Fatalf("rows 0..7 and 2048..2055 dirtied %#x, want %#x", a.dirty, want)
	}
	if err := a.StoreRows(accBlock-1, rows[:2], false); err != nil { // straddles blocks 0 and 1
		t.Fatal(err)
	}
	if a.dirty&3 != 3 {
		t.Fatalf("a store straddling blocks 0 and 1 dirtied %#x", a.dirty)
	}
	if err := a.Clear(0, a.Count()); err != nil {
		t.Fatal(err)
	}
	if a.dirty != ^uint64(0) {
		t.Fatalf("clearing the whole file dirtied %#x", a.dirty)
	}
	a.Reset()
	requireFreshAccumulators(t, a, false)
}

// BenchmarkAccumulatorsResetTwoHalves is the reset a two-layer model pays:
// the compiler alternates accumulator halves, so the run wrote rows 0..7
// and 2048..2055. clearedB/op is what Reset zeroed for it — two 64-register
// blocks, where a high-water mark cleared everything up to register 2056.
func BenchmarkAccumulatorsResetTwoHalves(b *testing.B) {
	a := NewAccumulators()
	var rows [8][isa.MatrixDim]int32
	for i := range rows {
		rows[i][0] = int32(i + 1)
	}
	var cleared int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.StoreRows(0, rows[:], false); err != nil {
			b.Fatal(err)
		}
		if err := a.StoreRows(isa.AccumulatorCount/2, rows[:], false); err != nil {
			b.Fatal(err)
		}
		cleared = bits.OnesCount64(a.dirty) * accBlock * isa.MatrixDim * 4
		a.Reset()
	}
	b.ReportMetric(float64(cleared), "clearedB/op")
}

// TestFlipBitDoesNotOutliveReset: an injected upset that lands outside
// anything the program wrote must still be gone after Reset, or it leaks
// into every later run on the device. Guarded and unguarded.
func TestFlipBitDoesNotOutliveReset(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		a := NewAccumulators()
		u := NewUnifiedBuffer()
		if guarded {
			a.EnableGuard()
			u.EnableGuard()
		}
		if err := u.Write(0, []int8{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		var row [isa.MatrixDim]int32
		row[5] = 9
		if err := a.Store(3, &row, false); err != nil {
			t.Fatal(err)
		}
		const ubAddr = 17<<20 + 123 // far beyond the written prefix
		u.FlipBit(ubAddr, 6)
		a.FlipBit(3000, 41, 2)
		if guarded {
			if bad := u.VerifyGuard(ubAddr, 1); len(bad) != 1 || bad[0] != ubAddr/ubGuardBlock {
				t.Fatalf("UB flip beyond the prefix: bad blocks %v", bad)
			}
			if bad := a.VerifyParity(0, a.Count()); len(bad) != 1 || bad[0] != 3000 {
				t.Fatalf("accumulator flip: bad registers %v", bad)
			}
		}
		if got, err := u.Read(ubAddr, 1); err != nil || got[0] != 1<<6 {
			t.Fatalf("flipped UB byte reads %v, %v", got, err)
		}
		u.Reset()
		a.Reset()
		requireFreshAccumulators(t, a, guarded)
		if u.HighWater() != 0 {
			t.Fatalf("UB high water %d after Reset", u.HighWater())
		}
		for i, v := range u.data {
			if v != 0 {
				t.Fatalf("UB byte %d = %d after Reset", i, v)
			}
		}
		if bad := u.VerifyGuard(0, u.Size()); bad != nil {
			t.Fatalf("UB guard flags %v after Reset", bad)
		}
	}
}
