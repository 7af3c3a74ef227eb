package memory

import (
	"testing"

	"tpusim/internal/isa"
)

// requireZeroAccumulators fails unless every register and parity word of a
// reads as a freshly allocated file's does: all zero, parity clean.
func requireZeroAccumulators(t *testing.T, a *Accumulators, guarded bool) {
	t.Helper()
	for i := 0; i < isa.AccumulatorCount; i++ {
		reg, err := a.Load(i)
		if err != nil {
			t.Fatal(err)
		}
		if *reg != ([isa.MatrixDim]int32{}) {
			t.Fatalf("register %d is not zero", i)
		}
	}
	if (a.parity != nil) != guarded {
		t.Fatalf("guarded = %v, want %v", a.parity != nil, guarded)
	}
	for i, p := range a.parity {
		if p != 0 {
			t.Fatalf("parity word %d = %#x, fresh 0", i, p)
		}
	}
	if bad := a.VerifyParity(0, isa.AccumulatorCount); bad != nil {
		t.Fatalf("parity flags %v", bad)
	}
	for i, k := range a.tiles {
		if k != 0 {
			t.Fatalf("register %d counts %d tiles", i, k)
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

// TestAccumulatorsBackedOnDemand: a fresh file has no storage and reads as
// zero everywhere — Load of an unbacked register is the all-zero register,
// parity over unbacked blocks is clean — stores and clears that cross a
// block boundary behave exactly as they do inside one block, an injected
// flip in an unbacked register backs its block and is what parity flags, and
// a store backs exactly the blocks it overlaps (a clear, none).
func TestAccumulatorsBackedOnDemand(t *testing.T) {
	a := NewAccumulators()
	a.EnableGuard()
	requireZeroAccumulators(t, a, true)
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
	a.FlipBit(3000, 41, 2)
	if backedBlocks(a) != 3 || a.blocks[3000/accBlock] == nil {
		t.Fatalf("a flip in an unbacked register must back its block (%d backed)", backedBlocks(a))
	}
	if got, _ := a.Load(3000); got[41/4] != 1<<(41%4*8+2) {
		t.Fatalf("flipped lane reads %#x", got[41/4])
	}
	if bad := a.VerifyParity(0, isa.AccumulatorCount); len(bad) != 1 || bad[0] != 3000 {
		t.Fatalf("accumulator flip: bad registers %v", bad)
	}

	// A store backs exactly the blocks it overlaps; an empty store or
	// clear, and a clear of anything, backs none.
	a = NewAccumulators()
	if err := a.Clear(100, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreRows(100, nil, false); err != nil {
		t.Fatal(err)
	}
	if backedBlocks(a) != 0 {
		t.Fatalf("an empty clear and store backed %d blocks", backedBlocks(a))
	}
	var eight [8][isa.MatrixDim]int32
	if err := a.StoreRows(0, eight[:], false); err != nil {
		t.Fatal(err)
	}
	if err := a.StoreRows(2048, eight[:], false); err != nil {
		t.Fatal(err)
	}
	if backedBlocks(a) != 2 || a.blocks[0] == nil || a.blocks[2048/accBlock] == nil {
		t.Fatalf("rows 0..7 and 2048..2055 backed %d blocks, want blocks 0 and %d", backedBlocks(a), 2048/accBlock)
	}
	if err := a.StoreRows(accBlock-1, eight[:2], false); err != nil { // straddles blocks 0 and 1
		t.Fatal(err)
	}
	if backedBlocks(a) != 3 || a.blocks[1] == nil {
		t.Fatalf("a store straddling blocks 0 and 1 backed %d blocks, want 3", backedBlocks(a))
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
	if backedBlocks(a) != accBlocks {
		t.Fatalf("storing the whole file backed %d blocks, want %d", backedBlocks(a), accBlocks)
	}
}

// TestFlipBitDoesNotOutliveReset: an injected Unified Buffer upset that
// lands outside anything the program wrote must still be gone after Reset,
// or it leaks into every later run on the device. Guarded and unguarded.
func TestFlipBitDoesNotOutliveReset(t *testing.T) {
	for _, guarded := range []bool{false, true} {
		u := NewUnifiedBuffer()
		if guarded {
			u.EnableGuard()
		}
		if err := u.Write(0, []int8{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		const ubAddr = 17<<20 + 123 // far beyond the written prefix
		u.FlipBit(ubAddr, 6)
		if guarded {
			if bad := u.VerifyGuard(ubAddr, 1); len(bad) != 1 || bad[0] != ubAddr/ubGuardBlock {
				t.Fatalf("UB flip beyond the prefix: bad blocks %v", bad)
			}
		}
		if got, err := u.Read(ubAddr, 1); err != nil || got[0] != 1<<6 {
			t.Fatalf("flipped UB byte reads %v, %v", got, err)
		}
		u.Reset()
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
