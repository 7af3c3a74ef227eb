package systolic

import (
	"fmt"
	"testing"
	"testing/quick"

	"tpusim/internal/isa"
	"tpusim/internal/tensor"
)

func TestTileRoundTrip(t *testing.T) {
	b := make([]int8, isa.WeightTileBytes)
	for i := range b {
		b[i] = int8(i * 7)
	}
	tile, err := TileFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	back := tile.Bytes()
	for i := range b {
		if back[i] != b[i] {
			t.Fatalf("byte %d: %d != %d", i, back[i], b[i])
		}
	}
	if tile.at(1, 0) != b[1] || tile.at(4, 0) != b[isa.WeightQuadBytes] || tile.at(0, 1) != b[4] {
		t.Error("the matrix unit's layout broken")
	}
}

func TestTileFromBytesWrongSize(t *testing.T) {
	if _, err := TileFromBytes(make([]int8, 100)); err == nil {
		t.Error("wrong size accepted")
	}
}

func TestDoubleBufferProtocol(t *testing.T) {
	a := New()
	if a.active != nil {
		t.Error("fresh array should have no active tile")
	}
	if err := a.Commit(); err == nil {
		t.Error("commit with empty shadow accepted")
	}
	if err := a.LoadShadow(nil); err == nil {
		t.Error("nil tile accepted")
	}
	tile := newTile()
	if err := a.LoadShadow(tile); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadShadow(tile); err == nil {
		t.Error("second shadow load accepted before commit")
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.active == nil {
		t.Error("commit did not activate tile")
	}
	// Shadow is free again: the double buffer allows the next tile to
	// shift in while this one computes.
	if err := a.LoadShadow(newTile()); err != nil {
		t.Errorf("shadow not freed by commit: %v", err)
	}
}

func TestMulRowRequiresTile(t *testing.T) {
	a := New()
	var in [isa.MatrixDim]int8
	if _, err := a.MulRow(&in); err == nil {
		t.Error("multiply without weights accepted")
	}
}

// TestUnloadedActiveTileIsNoTile: a device keeps one array and one tile for
// its life and unloads the tile between runs, so an active tile with no view
// must read as no tile — Active is nil and every multiply refuses — until a
// Load and Commit put weights back.
func TestUnloadedActiveTileIsNoTile(t *testing.T) {
	a := New()
	tile := newTile()
	if err := a.LoadShadow(tile); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	tile.Unload()
	if a.Active() != nil {
		t.Error("an unloaded active tile is still active")
	}
	var in [isa.MatrixDim]int8
	if _, err := a.MulRow(&in); err == nil {
		t.Error("MulRow against an unloaded tile accepted")
	}
	var out [1][isa.MatrixDim]int32
	if err := a.MultiplyStrided(in[:], isa.MatrixDim, out[:], 1, false); err == nil {
		t.Error("MultiplyStrided against an unloaded tile accepted")
	}
	if err := tile.Load(make([]int8, isa.WeightTileBytes)); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadShadow(tile); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if a.Active() != tile {
		t.Error("the reloaded tile is not active")
	}
	if err := a.MultiplyStrided(in[:], isa.MatrixDim, out[:], 1, false); err != nil {
		t.Errorf("MultiplyStrided against the reloaded tile: %v", err)
	}
}

func TestMulRowKnown(t *testing.T) {
	a := New()
	tile := newTile()
	// Identity-ish: W[r][c] = 1 if r==c.
	for i := 0; i < isa.MatrixDim; i++ {
		tile.set(i, i, 1)
	}
	a.LoadShadow(tile)
	a.Commit()
	var in [isa.MatrixDim]int8
	in[0], in[100], in[255] = 5, -9, 127
	out, err := a.MulRow(&in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 || out[100] != -9 || out[255] != 127 {
		t.Errorf("identity multiply broken: %d %d %d", out[0], out[100], out[255])
	}
}

// TestMultiplyMatchesReferenceGEMM: the systolic array's functional output
// must equal the naive int8 GEMM for random operands.
func TestMultiplyMatchesReferenceGEMM(t *testing.T) {
	f := func(seed int64) bool {
		r := seed
		next := func() int8 {
			r = r*6364136223846793005 + 1442695040888963407
			return int8(r >> 56)
		}
		tile := newTile()
		w := tensor.NewI8(isa.MatrixDim, isa.MatrixDim)
		for rr := 0; rr < isa.MatrixDim; rr++ {
			for c := 0; c < isa.MatrixDim; c++ {
				v := next()
				tile.set(rr, c, v)
				w.Data[rr*isa.MatrixDim+c] = v
			}
		}
		const b = 3
		in := make([]int8, b*isa.MatrixDim)
		a8 := tensor.NewI8(b, isa.MatrixDim)
		for i := range in {
			in[i] = next()
			a8.Data[i] = in[i]
		}
		arr := New()
		arr.LoadShadow(tile)
		arr.Commit()
		got, err := arr.Multiply(in)
		if err != nil {
			return false
		}
		want, err := tensor.MatMulI8(a8, w)
		if err != nil {
			return false
		}
		for i := 0; i < b; i++ {
			for c := 0; c < isa.MatrixDim; c++ {
				if got[i][c] != want.Data[i*want.Shape[1]+c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestMultiplyBadLength(t *testing.T) {
	a := New()
	a.LoadShadow(newTile())
	a.Commit()
	if _, err := a.Multiply(make([]int8, 100)); err == nil {
		t.Error("non-multiple-of-256 input accepted")
	}
}

func TestSpeedModes(t *testing.T) {
	if ModeFor(0) != Full {
		t.Error("8-bit should be full speed")
	}
	if ModeFor(isa.FlagWeights16) != Half {
		t.Error("16-bit weights should be half speed")
	}
	if ModeFor(isa.FlagActs16) != Half {
		t.Error("16-bit activations should be half speed")
	}
	if ModeFor(isa.FlagWeights16|isa.FlagActs16) != Quarter {
		t.Error("16-bit both should be quarter speed")
	}
}

func TestComputeCycles(t *testing.T) {
	// "taking B pipelined cycles to complete"
	if ComputeCycles(200, Full) != 200 {
		t.Error("B rows at full speed should take B cycles")
	}
	if ComputeCycles(200, Quarter) != 800 {
		t.Error("quarter speed should quadruple cycles")
	}
}

func TestShiftAndFill(t *testing.T) {
	if ShiftCycles() != 256 {
		t.Errorf("ShiftCycles = %d, want 256 (paper: 'the 256 cycles it takes to shift a tile in')", ShiftCycles())
	}
	if FillLatency() != 511 {
		t.Errorf("FillLatency = %d, want 511", FillLatency())
	}
}

func TestUtilization(t *testing.T) {
	if Utilization(256, 256) != 1.0 {
		t.Error("full tile should be 100%")
	}
	if got := Utilization(128, 256); got != 0.5 {
		t.Errorf("half rows = %v, want 0.5", got)
	}
	if got := Utilization(256, 64); got != 0.25 {
		t.Errorf("quarter cols = %v, want 0.25", got)
	}
	if Utilization(0, 256) != 0 || Utilization(256, -1) != 0 {
		t.Error("degenerate dims should be 0")
	}
	if Utilization(1000, 1000) != 1.0 {
		t.Error("oversize dims should clamp to 1.0")
	}
}

func TestZeroSkipEquivalence(t *testing.T) {
	// The MulRow zero-skip fast path must not change results: an input of
	// zeros yields zeros regardless of weights.
	a := New()
	tile := newTile()
	for r := 0; r < isa.MatrixDim; r++ {
		for c := 0; c < isa.MatrixDim; c++ {
			tile.set(r, c, int8(r+c))
		}
	}
	a.LoadShadow(tile)
	a.Commit()
	var in [isa.MatrixDim]int8
	out, err := a.MulRow(&in)
	if err != nil {
		t.Fatal(err)
	}
	for c, v := range out {
		if v != 0 {
			t.Fatalf("zero input produced %d at col %d", v, c)
		}
	}
}

// Multiply pushes B rows (flat, B*256 int8) through the array, returning
// B 256-wide partial sums. It is the functional body of one MatrixMultiply
// instruction against the active tile, bit-identical to calling MulRow row
// by row.
func (a *Array) Multiply(in []int8) ([][isa.MatrixDim]int32, error) {
	if len(in)%isa.MatrixDim != 0 {
		return nil, fmt.Errorf("systolic: input length %d not a multiple of %d", len(in), isa.MatrixDim)
	}
	out := make([][isa.MatrixDim]int32, len(in)/isa.MatrixDim)
	if err := a.MultiplyInto(in, out, 1); err != nil {
		return nil, err
	}
	return out, nil
}
