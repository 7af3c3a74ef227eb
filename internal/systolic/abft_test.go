package systolic

import (
	"math/rand"
	"testing"

	"tpusim/internal/isa"
)

// randTile builds a random int8 weight tile.
func randTile(rng *rand.Rand) *Tile {
	t := newTile()
	for r := 0; r < isa.MatrixDim; r++ {
		for c := 0; c < isa.MatrixDim; c++ {
			t.set(r, c, int8(rng.Intn(256)-128))
		}
	}
	return t
}

func randRow(rng *rand.Rand) *[isa.MatrixDim]int8 {
	var row [isa.MatrixDim]int8
	for i := range row {
		// Zero-heavy, like post-ReLU activations.
		if rng.Intn(3) == 0 {
			row[i] = 0
		} else {
			row[i] = int8(rng.Intn(256) - 128)
		}
	}
	return &row
}

// mulRow computes the reference output row for act against t.
func mulRowRef(t *Tile, act *[isa.MatrixDim]int8) *[isa.MatrixDim]int32 {
	a := New()
	if err := a.LoadShadow(t); err != nil {
		panic(err)
	}
	if err := a.Commit(); err != nil {
		panic(err)
	}
	out, err := a.MulRow(act)
	if err != nil {
		panic(err)
	}
	return out
}

// TestABFTCleanRowsPass verifies that uncorrupted outputs always satisfy
// both checksum equations exactly.
func TestABFTCleanRowsPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		tile := randTile(rng)
		cs := tile.Checksums()
		for i := 0; i < 8; i++ {
			act := randRow(rng)
			out := mulRowRef(tile, act)
			if ck := cs.VerifyRow(act, out); !ck.OK {
				t.Fatalf("trial %d row %d: clean output flagged: %+v", trial, i, ck)
			}
		}
	}
}

// TestABFTSingleFlipProperty is the property test pinned by the issue:
// random int8 tiles x random single bit flips in the output row =>
// detection, exact column localization, and algebraic correction back to
// the bit-exact clean row.
func TestABFTSingleFlipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		tile := randTile(rng)
		cs := tile.Checksums()
		act := randRow(rng)
		clean := mulRowRef(tile, act)

		corrupted := *clean
		col := rng.Intn(isa.MatrixDim)
		bit := uint(rng.Intn(32))
		corrupted[col] ^= 1 << bit

		ck := cs.VerifyRow(act, &corrupted)
		if ck.OK {
			t.Fatalf("trial %d: flip at col %d bit %d undetected", trial, col, bit)
		}
		if ck.Col != col {
			t.Fatalf("trial %d: flip at col %d localized to %d", trial, col, ck.Col)
		}
		wantDelta := int64(corrupted[col]) - int64(clean[col])
		if ck.Delta != wantDelta {
			t.Fatalf("trial %d: delta %d, want %d", trial, ck.Delta, wantDelta)
		}
		ok, err := cs.CorrectRow(act, &corrupted, ck)
		if err != nil || !ok {
			t.Fatalf("trial %d: correction failed: ok=%v err=%v", trial, ok, err)
		}
		if corrupted != *clean {
			t.Fatalf("trial %d: corrected row differs from clean row", trial)
		}
	}
}

// TestABFTDoubleFlipDetected: two independent bit flips in one output row
// are always detected (localization may legitimately fail — the device
// falls back to recomputing the row).
func TestABFTDoubleFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		tile := randTile(rng)
		cs := tile.Checksums()
		act := randRow(rng)
		clean := mulRowRef(tile, act)

		corrupted := *clean
		c1 := rng.Intn(isa.MatrixDim)
		c2 := rng.Intn(isa.MatrixDim)
		b1, b2 := uint(rng.Intn(32)), uint(rng.Intn(32))
		corrupted[c1] ^= 1 << b1
		corrupted[c2] ^= 1 << b2
		if corrupted == *clean {
			continue // the two flips cancelled (same col, same bit)
		}
		ck := cs.VerifyRow(act, &corrupted)
		if ck.OK {
			t.Fatalf("trial %d: double flip (%d.%d, %d.%d) undetected",
				trial, c1, b1, c2, b2)
		}
	}
}

// TestABFTWeightFlipDetected: a bit flip in the *weights* after the
// checksums were latched shows up in every output row computed from the
// damaged tile (the DRAM-corruption case the weight-memory sidecar also
// guards).
func TestABFTWeightFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tile := randTile(rng)
	cs := Checksum(tile) // latch checksums of the clean tile
	r := rng.Intn(isa.MatrixDim)
	c := rng.Intn(isa.MatrixDim)
	tile.set(r, c, tile.at(r, c)^int8(1<<uint(rng.Intn(8))))

	detected := false
	for i := 0; i < 16; i++ {
		act := randRow(rng)
		if act[r] == 0 {
			act[r] = 1 // make the damaged weight row participate
		}
		out := mulRowRef(tile, act)
		ck := cs.VerifyRow(act, out)
		if !ck.OK {
			detected = true
			if ck.Col != c {
				t.Fatalf("weight flip at col %d localized to %d", c, ck.Col)
			}
		}
	}
	if !detected {
		t.Fatal("weight flip never detected across 16 activation rows")
	}
}

// TestABFTComputeCycles pins the 2/256 occupancy overhead of the checksum
// columns.
func TestABFTComputeCycles(t *testing.T) {
	cases := []struct {
		b    int
		mode SpeedMode
		want int64
	}{
		{0, Full, 0},
		{1, Full, 2},     // 1 + ceil(2/256) = 1 extra cycle min
		{128, Full, 129}, // 128 + ceil(256/256)
		{256, Full, 258}, // 256 + 2
		{256, Half, 516}, // 512 + 4
	}
	for _, tc := range cases {
		if got := ABFTComputeCycles(tc.b, tc.mode); got != tc.want {
			t.Errorf("ABFTComputeCycles(%d, %d) = %d, want %d", tc.b, tc.mode, got, tc.want)
		}
	}
	// The overhead is bounded by 2/256 + one quantization cycle.
	for b := 1; b <= 1024; b *= 2 {
		base := ComputeCycles(b, Full)
		got := ABFTComputeCycles(b, Full)
		if over := got - base; over > base*2/int64(isa.MatrixDim)+1 {
			t.Errorf("b=%d: overhead %d cycles exceeds 2/256 + 1", b, over)
		}
	}
}
