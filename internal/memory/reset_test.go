package memory

import (
	"math/bits"
	"math/rand"
	"testing"

	"tpusim/internal/isa"
)

// requireFreshAccumulators fails unless every register and parity word of a
// reads as a freshly allocated file's does: all zero, parity clean.
func requireFreshAccumulators(t *testing.T, a *Accumulators, guarded bool) {
	t.Helper()
	for i := 0; i < isa.AccumulatorCount; i++ {
		reg, err := a.Load(i)
		if err != nil {
			t.Fatal(err)
		}
		if *reg != ([isa.MatrixDim]int32{}) {
			t.Fatalf("register %d is not zero after Reset", i)
		}
	}
	if (a.parity != nil) != guarded {
		t.Fatalf("guarded = %v after Reset, want %v", a.parity != nil, guarded)
	}
	for i, p := range a.parity {
		if p != 0 {
			t.Fatalf("parity word %d = %#x after Reset, fresh 0", i, p)
		}
	}
	if bad := a.VerifyParity(0, isa.AccumulatorCount); bad != nil {
		t.Fatalf("parity flags %v after Reset", bad)
	}
	if a.dirty != 0 {
		t.Fatalf("dirty mask %#x after Reset", a.dirty)
	}
	for i, k := range a.tiles {
		if k != 0 {
			t.Fatalf("register %d counts %d tiles after Reset", i, k)
		}
	}
}

// backedBlocks counts the blocks of a that have storage.
func backedBlocks(a *Accumulators) int {
	n := 0
	for _, b := range a.blocks {
		if b != nil {
			n++
		}
	}
	return n
}

// TestAccumulatorsResetEqualsFresh is the differential test of the dirty-
// block Reset: seeded random Store / StoreRows / Rows / Clear / FlipBit programs
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
				switch rng.Intn(5) {
				case 4:
					// The array's direct write, wherever Direct allows it.
					n, acc := 1+rng.Intn(len(rows)), rng.Intn(2) == 0
					for done := 0; done < n && a.Direct(idx, n, acc); {
						regs := a.Rows(idx+done, n-done, acc)
						copy(regs, rows[done:])
						done += len(regs)
					}
				case 0:
					err = a.StoreRows(idx, rows[:1], rng.Intn(2) == 0)
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

// TestAccumulatorsDirtyMask pins the mask arithmetic and the backing that
// follows it: an empty range marks nothing, a store marks and backs exactly
// the blocks it overlaps, a clear backs nothing, and a store over the whole
// file marks every block.
func TestAccumulatorsDirtyMask(t *testing.T) {
	a := NewAccumulators()
	if err := a.Clear(100, 0); err != nil {
		t.Fatal(err)
	}
	if a.dirty != 0 || backedBlocks(a) != 0 {
		t.Fatalf("Clear(100, 0) dirtied %#x, backed %d blocks", a.dirty, backedBlocks(a))
	}
	var rows [8][isa.MatrixDim]int32
	if err := a.StoreRows(0, rows[:], false); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreRows(2048, rows[:], false); err != nil {
		t.Fatal(err)
	}
	if want := uint64(1) | 1<<(2048/accBlock); a.dirty != want || backedBlocks(a) != 2 {
		t.Fatalf("rows 0..7 and 2048..2055 dirtied %#x (want %#x), backed %d blocks (want 2)", a.dirty, want, backedBlocks(a))
	}
	if w := a.written[2048/accBlock]; w.lo != 0 || w.hi != 8 {
		t.Fatalf("rows 2048..2055 recorded as written rows [%d, %d) of their block, want [0, 8)", w.lo, w.hi)
	}
	if err := a.StoreRows(accBlock-1, rows[:2], false); err != nil { // straddles blocks 0 and 1
		t.Fatal(err)
	}
	if a.dirty&3 != 3 || backedBlocks(a) != 3 {
		t.Fatalf("a store straddling blocks 0 and 1 dirtied %#x, backed %d blocks", a.dirty, backedBlocks(a))
	}
	if w0, w1 := a.written[0], a.written[1]; w0.lo != 0 || w0.hi != accBlock || w1.lo != 0 || w1.hi != 1 {
		t.Fatalf("written rows of blocks 0 and 1: [%d, %d) and [%d, %d), want [0, %d) and [0, 1)", w0.lo, w0.hi, w1.lo, w1.hi, accBlock)
	}
	if err := a.Clear(0, isa.AccumulatorCount); err != nil {
		t.Fatal(err)
	}
	if backedBlocks(a) != 3 {
		t.Fatalf("clearing the whole file backed %d blocks, want the 3 already written", backedBlocks(a))
	}
	if err := a.StoreRows(0, make([][isa.MatrixDim]int32, isa.AccumulatorCount), false); err != nil {
		t.Fatal(err)
	}
	if a.dirty != ^uint64(0) || backedBlocks(a) != accBlocks {
		t.Fatalf("storing the whole file dirtied %#x, backed %d blocks", a.dirty, backedBlocks(a))
	}
	a.Reset()
	requireFreshAccumulators(t, a, false)
}

// TestAccumulatorsBackedOnDemand: a fresh file has no storage and reads as
// zero everywhere — Load of an unbacked register is the all-zero register,
// parity over unbacked blocks is clean — and stores and clears that cross a
// block boundary behave exactly as they do inside one block.
func TestAccumulatorsBackedOnDemand(t *testing.T) {
	a := NewAccumulators()
	a.EnableGuard()
	requireFreshAccumulators(t, a, true)
	if backedBlocks(a) != 0 {
		t.Fatalf("reading a fresh file backed %d blocks", backedBlocks(a))
	}

	var rows [6][isa.MatrixDim]int32
	for i := range rows {
		for j := range rows[i] {
			rows[i][j] = int32(1000*i + j + 1)
		}
	}
	// Registers at..at+5 straddle blocks 4 and 5.
	const at = 5*accBlock - 3
	for pass := 1; pass <= 2; pass++ { // overwrite, then accumulate on top
		if err := a.StoreRows(at, rows[:], pass == 2); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			got, err := a.Load(at + i)
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if want := int32(pass) * rows[i][j]; got[j] != want {
					t.Fatalf("pass %d: register %d lane %d = %d, want %d", pass, at+i, j, got[j], want)
				}
			}
		}
	}
	if backedBlocks(a) != 2 {
		t.Fatalf("a store across one block boundary backed %d blocks, want 2", backedBlocks(a))
	}
	if bad := a.VerifyParity(0, isa.AccumulatorCount); bad != nil {
		t.Fatalf("parity flags %v after clean stores", bad)
	}
	// Clear the middle four across the boundary; the outer two keep their sums.
	if err := a.Clear(at+1, 4); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		got, _ := a.Load(at + i)
		if zero, want := *got == [isa.MatrixDim]int32{}, i >= 1 && i <= 4; zero != want {
			t.Fatalf("register %d after Clear(%d, 4): zero = %v, want %v", at+i, at+1, zero, want)
		}
	}
	if bad := a.VerifyParity(0, isa.AccumulatorCount); bad != nil {
		t.Fatalf("parity flags %v after Clear", bad)
	}
	// An unbacked register far from anything written: zero, and not storage
	// of its own — a Load does not back a block.
	if got, _ := a.Load(3000); *got != ([isa.MatrixDim]int32{}) || backedBlocks(a) != 2 {
		t.Fatalf("Load(3000) nonzero or backed a block (%d backed)", backedBlocks(a))
	}
	a.Reset()
	requireFreshAccumulators(t, a, true)
}

// BenchmarkAccumulatorsResetTwoHalves is the reset a two-layer model pays:
// the compiler alternates accumulator halves, so the run wrote rows 0..7
// and 2048..2055. clearedB/op is what Reset zeroed for it — the sixteen
// written registers, where whole dirty blocks were 128 KiB and a high-water
// mark cleared everything up to register 2056.
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
		cleared = 0
		for m := a.dirty; m != 0; m &= m - 1 {
			w := a.written[bits.TrailingZeros64(m)]
			cleared += int(w.hi-w.lo) * isa.MatrixDim * 4
		}
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
		if err := a.StoreRows(3, [][isa.MatrixDim]int32{row}, false); err != nil {
			t.Fatal(err)
		}
		const ubAddr = 17<<20 + 123 // far beyond the written prefix
		u.FlipBit(ubAddr, 6)
		a.FlipBit(3000, 41, 2)
		if backedBlocks(a) != 2 || a.blocks[3000/accBlock] == nil {
			t.Fatalf("a flip in an unbacked register must back its block (%d backed)", backedBlocks(a))
		}
		if got, _ := a.Load(3000); got[41/4] != 1<<(41%4*8+2) {
			t.Fatalf("flipped lane reads %#x", got[41/4])
		}
		if guarded {
			if bad := u.VerifyGuard(ubAddr, 1); len(bad) != 1 || bad[0] != ubAddr/ubGuardBlock {
				t.Fatalf("UB flip beyond the prefix: bad blocks %v", bad)
			}
			if bad := a.VerifyParity(0, isa.AccumulatorCount); len(bad) != 1 || bad[0] != 3000 {
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

// TestAccumulatorsDirectBound pins the tile count behind Direct: an
// overwrite is always direct, an accumulate is while every register holds
// at most 510 tiles (|v| < 2^31-2^22), an injected flip or Unbound voids the
// count until the next overwrite, and a guarded file is never direct.
func TestAccumulatorsDirectBound(t *testing.T) {
	a := NewAccumulators()
	var row [1][isa.MatrixDim]int32
	if err := a.StoreRows(100, row[:], false); err != nil {
		t.Fatal(err)
	}
	for k := 1; k < maxWrapTiles; k++ {
		if err := a.StoreRows(100, row[:], true); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Direct(99, 3, true) {
		t.Fatalf("register holding %d tiles refused a direct accumulate", maxWrapTiles)
	}
	a.Rows(100, 1, true) // tile 511
	if a.Direct(99, 3, true) || !a.Direct(99, 3, false) {
		t.Fatal("register holding 511 tiles: want accumulate staged, overwrite direct")
	}
	a.Rows(100, 1, false)
	if !a.Direct(100, 1, true) {
		t.Fatal("overwrite did not restore the bound")
	}
	a.FlipBit(100, 0, 0)
	if a.Direct(100, 1, true) {
		t.Fatal("flipped register still bounded")
	}
	a.Rows(100, 1, false)
	a.Unbound(100, 1)
	if a.Direct(100, 1, true) {
		t.Fatal("Unbound register still bounded")
	}
	if got := len(a.Rows(60, 10, false)); got != 4 {
		t.Fatalf("Rows across a block boundary returned %d registers, want the 4 before it", got)
	}
	a.EnableGuard()
	if a.Direct(0, 1, false) {
		t.Fatal("guarded file took a direct write")
	}
}
