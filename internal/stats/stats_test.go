package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestGeometricMeanKnown(t *testing.T) {
	got, err := GeometricMean([]float64{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("GM(2,8) = %v, want 4", got)
	}
}

func TestGeometricMeanPaperTable6(t *testing.T) {
	// Table 6 TPU row: per-app relative performance 41.0, 18.5, 3.5, 1.2,
	// 40.3, 71.0 has GM 14.5 (paper).
	got, err := GeometricMean([]float64{41.0, 18.5, 3.5, 1.2, 40.3, 71.0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-14.5) > 0.1 {
		t.Errorf("GM of Table 6 TPU row = %v, paper says 14.5", got)
	}
}

func TestGeometricMeanErrors(t *testing.T) {
	if _, err := GeometricMean(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := GeometricMean([]float64{1, -1}); err == nil {
		t.Error("negative value accepted")
	}
	if _, err := GeometricMean([]float64{0}); err == nil {
		t.Error("zero value accepted")
	}
}

func TestWeightedMeanKnown(t *testing.T) {
	got, err := WeightedMean([]float64{1, 3}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("WM = %v, want 2", got)
	}
	got, err = WeightedMean([]float64{1, 3}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1.5 {
		t.Errorf("WM = %v, want 1.5", got)
	}
}

func TestWeightedMeanPaperTable6(t *testing.T) {
	// Per-app deployment mix recovered from the paper's aggregate mix
	// (MLPs 61%, LSTMs 29%, CNNs 5%) and its reported weighted means
	// (TPU 29.2, GPU 1.9); see internal/models.DeployShare.
	xs := []float64{41.0, 18.5, 3.5, 1.2, 40.3, 71.0}
	ws := []float64{57.9, 3.1, 13.3, 15.7, 2.5, 2.5}
	got, err := WeightedMean(xs, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Paper reports WM 29.2 for the TPU.
	if math.Abs(got-29.2) > 1.0 {
		t.Errorf("WM of Table 6 TPU row = %v, paper says 29.2", got)
	}
}

func TestWeightedMeanErrors(t *testing.T) {
	if _, err := WeightedMean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := WeightedMean(nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := WeightedMean([]float64{1}, []float64{-1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := WeightedMean([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero weight sum accepted")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p50, err := Percentile(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p50-5.5) > 1e-12 {
		t.Errorf("p50 = %v, want 5.5", p50)
	}
	p0, _ := Percentile(xs, 0)
	p100, _ := Percentile(xs, 100)
	if p0 != 1 || p100 != 10 {
		t.Errorf("p0=%v p100=%v, want 1 and 10", p0, p100)
	}
}

func TestPercentileSingle(t *testing.T) {
	got, err := Percentile([]float64{7}, 99)
	if err != nil || got != 7 {
		t.Errorf("single-element percentile = %v, %v", got, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Error("negative percentile accepted")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Error("percentile > 100 accepted")
	}
}

// percentileOracle is Percentile as it was before Percentiles: its own
// copy and sort per call.
func percentileOracle(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestPercentilesSortOnce: several percentiles from one call are bit-equal
// to one call each, in the order asked, and the input is left alone.
func TestPercentilesSortOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ps := []float64{99, 0, 50, 100, 37.5, 50}
	for n := 1; n < 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		orig := append([]float64(nil), xs...)
		got, err := Percentiles(xs, ps...)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			if want := percentileOracle(xs, p); got[i] != want {
				t.Errorf("n=%d p=%v: Percentiles %v, one-at-a-time %v", n, p, got[i], want)
			}
		}
		if !slices.Equal(xs, orig) {
			t.Fatal("Percentiles mutated its input")
		}
	}
	if _, err := Percentiles([]float64{1}, 50, 101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	if _, err := Percentiles(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	// For any data, percentile is nondecreasing in p.
	f := func(seed int64) bool {
		xs := make([]float64, 17)
		r := seed
		for i := range xs {
			r = r*6364136223846793005 + 1442695040888963407
			xs[i] = float64(r % 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]float64{1, 2, 3})
	if err != nil || got != 2 {
		t.Errorf("Mean = %v, %v", got, err)
	}
	if _, err := Mean(nil); err == nil {
		t.Error("empty accepted")
	}
}

func TestGMLessOrEqualAMProperty(t *testing.T) {
	// AM-GM inequality must hold for any positive data.
	f := func(seed int64) bool {
		xs := make([]float64, 8)
		r := seed
		for i := range xs {
			r = r*6364136223846793005 + 1442695040888963407
			xs[i] = 1 + float64(uint64(r)%1000)/10
		}
		gm, err1 := GeometricMean(xs)
		am, err2 := Mean(xs)
		return err1 == nil && err2 == nil && gm <= am+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
