package stats

import (
	"math"
	"math/bits"
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
	if _, err := GeometricMean([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN value accepted")
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
	if _, err := WeightedMean([]float64{1, 2}, []float64{1, math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := WeightedMean([]float64{math.NaN(), 2}, []float64{1, 1}); err == nil {
		t.Error("NaN value accepted")
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
	if _, err := Percentile([]float64{1, 2, 3}, math.NaN()); err == nil {
		t.Error("NaN percentile accepted")
	}
	if _, err := Percentiles([]float64{1, 2, 3}, 50, math.NaN()); err == nil {
		t.Error("NaN among percentiles accepted")
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

func TestGMLessOrEqualAMProperty(t *testing.T) {
	// AM-GM inequality must hold for any positive data.
	f := func(seed int64) bool {
		xs := make([]float64, 8)
		r := seed
		for i := range xs {
			r = r*6364136223846793005 + 1442695040888963407
			xs[i] = 1 + float64(uint64(r)%1000)/10
		}
		gm, err := GeometricMean(xs)
		var am float64
		for _, x := range xs {
			am += x / float64(len(xs))
		}
		return err == nil && gm <= am+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sameFloats is exact equality with NaN equal to NaN.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	})
}

// checkAgainstOracle fails t unless Percentiles(xs, ps...) equals
// percentileOracle (copy, sort.Float64s, interpolate) exactly and leaves xs
// alone.
func checkAgainstOracle(t *testing.T, name string, xs, ps []float64) {
	t.Helper()
	orig := slices.Clone(xs)
	got, err := Percentiles(xs, ps...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := make([]float64, len(ps))
	for i, p := range ps {
		want[i] = percentileOracle(orig, p)
	}
	if !sameFloats(got, want) {
		t.Fatalf("%s (n=%d) ps %v: selection %v, sort %v", name, len(xs), ps, got, want)
	}
	if !sameFloats(xs, orig) {
		t.Fatalf("%s: Percentiles mutated its input", name)
	}
}

// TestPercentilesMatchSortOracle: selection gives the sort's answer, bit for
// bit, over sizes that cross the insertion-sort threshold, heavy ties,
// presorted, reversed and organ-pipe orders, and NaN and ±Inf samples.
func TestPercentilesMatchSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pss := [][]float64{{0}, {50}, {99}, {100}, {50, 99}, {99, 50, 0, 100}, {37.5, 12.34, 99.9, 66.6}}
	sizes := []int{}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 127, 128, 129, 500, 1023, 1999, 2000)
	orders := []struct {
		name  string
		order func(s []float64)
	}{
		{"random", func([]float64) {}},
		{"sorted", func(s []float64) { sort.Float64s(s) }},
		{"reversed", func(s []float64) { sort.Sort(sort.Reverse(sort.Float64Slice(s))) }},
		{"organ-pipe", func(s []float64) {
			sort.Float64s(s)
			slices.Reverse(s[len(s)/2:])
		}},
	}
	values := []struct {
		name  string
		value func() float64
	}{
		{"exp", rng.ExpFloat64},
		{"ties", func() float64 { return float64(rng.Intn(3)) }},
		{"special", func() float64 {
			switch rng.Intn(8) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return float64(rng.Intn(5))
		}},
	}
	for _, v := range values {
		for _, o := range orders {
			for _, n := range sizes {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = v.value()
				}
				o.order(xs)
				for _, ps := range pss {
					checkAgainstOracle(t, v.name+"/"+o.name, xs, ps)
				}
			}
		}
	}
}

// selectRankBy mirrors selectRank and partition over item ids under an
// arbitrary order, so that an adversary can answer its comparisons.
func selectRankBy(s []int, k int, less func(a, b int) bool) (sorted bool) {
	for rounds := 2 * bits.Len(uint(len(s))); len(s) > insertionMax; rounds-- {
		if k == len(s)-1 {
			return false
		}
		if rounds == 0 {
			return true
		}
		n, m := len(s), len(s)/2
		if less(s[m], s[0]) {
			s[m], s[0] = s[0], s[m]
		}
		if less(s[n-1], s[m]) {
			s[n-1], s[m] = s[m], s[n-1]
			if less(s[m], s[0]) {
				s[m], s[0] = s[0], s[m]
			}
		}
		s[0], s[m] = s[m], s[0]
		pivot := s[0]
		i, j := 0, n
		for {
			for i++; less(s[i], pivot); i++ {
			}
			for j--; less(pivot, s[j]); j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		s[0], s[j] = s[j], s[0]
		switch {
		case k < j:
			s = s[:j]
		case k > j:
			s, k = s[j+1:], k-j-1
		default:
			return false
		}
	}
	return false
}

// medianOf3Killer builds, with McIlroy's adversary ("A Killer Adversary for
// Quicksort", 1999), an input of n values on which selecting rank k uses
// up every partition round. Every value starts as "gas", above all solid
// values; when two gas values meet, the one likeliest to be a pivot is
// frozen to the next smallest value, so each pivot lands near the bottom.
func medianOf3Killer(n, k int) []float64 {
	gas := n
	val := make([]int, n)
	for i := range val {
		val[i] = gas
	}
	solid, candidate := 0, -1
	freeze := func(x int) { val[x] = solid; solid++ }
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	selectRankBy(ids, k, func(a, b int) bool {
		if val[a] == gas && val[b] == gas {
			if a == candidate {
				freeze(a)
			} else {
				freeze(b)
			}
		}
		if val[a] == gas {
			candidate = a
		} else if val[b] == gas {
			candidate = b
		}
		return val[a] < val[b]
	})
	xs := make([]float64, n)
	for i, v := range val {
		if v == gas {
			freeze(i)
			v = val[i]
		}
		xs[i] = float64(v)
	}
	return xs
}

// TestPercentilesKillerFallsBack: a median-of-3 killer runs selectRank out
// of partition rounds, and the sort it falls back to still gives the
// oracle's answer. The p50 is asked alone, so that Percentiles' first
// selection is the one the killer was built against.
func TestPercentilesKillerFallsBack(t *testing.T) {
	const n = 2000
	_, _, hi := rank(50, n)
	xs := medianOf3Killer(n, hi)
	if !selectRank(slices.Clone(xs), hi) {
		t.Fatal("the median-of-3 killer did not reach the sort fallback")
	}
	checkAgainstOracle(t, "killer", xs, []float64{50})
}

// TestPercentilesAllocs: Percentiles allocates its copy and its result and
// nothing else, however many percentiles it is asked for.
func TestPercentilesAllocs(t *testing.T) {
	xs := make([]float64, 30000)
	rng := rand.New(rand.NewSource(5))
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	all := []float64{50, 99, 99.9, 0}
	for k := 1; k <= len(all); k++ {
		ps := all[:k]
		if a := testing.AllocsPerRun(20, func() { _, _ = Percentiles(xs, ps...) }); a != 2 {
			t.Errorf("Percentiles of %d percentiles: %v allocations, want 2", k, a)
		}
	}
}

// FuzzPercentiles: selection equals the sort oracle on any input. Each byte
// of data is one sample: a small integer (so ties are common), or for the
// top bytes NaN, ±Inf or -0. An out-of-range or NaN percentile must be an
// error on both.
func FuzzPercentiles(f *testing.F) {
	f.Add([]byte{3, 1, 2}, 50.0, 99.0)
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), 0.0, 100.0)
	f.Add([]byte{255, 254, 253, 252, 0, 0, 0}, 37.5, 12.25)
	f.Fuzz(func(t *testing.T, data []byte, p1, p2 float64) {
		if len(data) == 0 {
			return
		}
		xs := make([]float64, len(data))
		for i, b := range data {
			switch b {
			case 255:
				xs[i] = math.NaN()
			case 254:
				xs[i] = math.Inf(1)
			case 253:
				xs[i] = math.Inf(-1)
			case 252:
				xs[i] = math.Copysign(0, -1)
			default:
				xs[i] = float64(b % 32)
			}
		}
		ps := []float64{p1, p2}
		if !(p1 >= 0 && p1 <= 100 && p2 >= 0 && p2 <= 100) {
			if _, err := Percentiles(xs, ps...); err == nil {
				t.Fatalf("percentiles %v accepted", ps)
			}
			return
		}
		checkAgainstOracle(t, "fuzz", xs, ps)
	})
}

// TestChunkedPercentilesRejects: a value outside the finite, >= +0 domain is
// an error wherever it lies, as are no values at all and a percentile out
// of [0, 100].
func TestChunkedPercentilesRejects(t *testing.T) {
	for _, bad := range []float64{-1e-3, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(1), math.Inf(-1), -math.MaxFloat64} {
		chunks := [][]float64{{1, 2, 3}, {4, bad, 5}}
		if qs, err := ChunkedPercentiles(chunks, 50); err == nil {
			t.Errorf("value %v accepted: %v", bad, qs)
		}
	}
	for _, chunks := range [][][]float64{nil, {}, {{}, {}}} {
		if _, err := ChunkedPercentiles(chunks, 50); err == nil {
			t.Errorf("no values (%v) accepted", chunks)
		}
	}
	for _, p := range []float64{-1, 100.5, math.NaN()} {
		if _, err := ChunkedPercentiles([][]float64{{1}}, p); err == nil {
			t.Errorf("percentile %v accepted", p)
		}
	}
}

// TestChunkedPercentilesNone: asked for no percentiles, ChunkedPercentiles
// answers as Percentiles does, with an empty result, once it has checked
// the values.
func TestChunkedPercentilesNone(t *testing.T) {
	qs, err := ChunkedPercentiles([][]float64{{1, 2}, {3}})
	if err != nil || len(qs) != 0 {
		t.Errorf("no percentiles: %v, %v; want an empty result", qs, err)
	}
	if _, err := ChunkedPercentiles([][]float64{{1, math.NaN()}}); err == nil {
		t.Error("NaN accepted when no percentiles were asked")
	}
}

// TestChunkedPercentilesAllocs: ChunkedPercentiles allocates the copy of the
// buckets it keeps and its result, nothing else, and leaves the chunks as
// they were.
func TestChunkedPercentilesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	chunks := make([][]float64, 8)
	for i := range chunks {
		chunks[i] = make([]float64, 4096)
		for j := range chunks[i] {
			chunks[i][j] = rng.ExpFloat64() * 1e-3
		}
	}
	orig := make([][]float64, len(chunks))
	for i, c := range chunks {
		orig[i] = slices.Clone(c)
	}
	if a := testing.AllocsPerRun(20, func() { _, _ = ChunkedPercentiles(chunks, 50, 99) }); a != 2 {
		t.Errorf("ChunkedPercentiles: %v allocations, want 2", a)
	}
	for i := range chunks {
		if !slices.Equal(chunks[i], orig[i]) {
			t.Fatalf("ChunkedPercentiles wrote chunk %d", i)
		}
	}
}

// BenchmarkChunkedPercentiles: p50 and p99 of 2^19 exponential latencies
// in 4096-value chunks, read where they lie (chunked) against a copy and
// selection (copy).
func BenchmarkChunkedPercentiles(b *testing.B) {
	rng := rand.New(rand.NewSource(54))
	chunks := make([][]float64, 128)
	for i := range chunks {
		chunks[i] = make([]float64, 4096)
		for j := range chunks[i] {
			chunks[i][j] = rng.ExpFloat64() * 1e-3
		}
	}
	b.Run("chunked", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_, _ = ChunkedPercentiles(chunks, 50, 99)
		}
	})
	b.Run("copy", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			s := make([]float64, 0, 128*4096)
			for _, c := range chunks {
				s = append(s, c...)
			}
			_, _ = PercentilesInPlace(s, 50, 99)
		}
	})
}
