package obs

import (
	"math"
	"math/rand"
	"testing"
)

func TestLatBucketBounds(t *testing.T) {
	for _, s := range []float64{1e-6, 1e-5, 1e-3, 7e-3, 1, 1000} {
		i := latBucket(s)
		lo, hi := latBucketBounds(i)
		if i != 0 && i != latBuckets-1 && (s < lo || s >= hi) {
			t.Errorf("latency %v landed in bucket %d [%v, %v)", s, i, lo, hi)
		}
	}
	if latBucket(0) != 0 {
		t.Error("zero latency not in bucket 0")
	}
	if latBucket(1e9) != latBuckets-1 {
		t.Error("huge latency not clamped")
	}
}

// TestLatBucketBoundaries pins latBucket behaviour at exact bucket edges
// and in the overflow bucket.
func TestLatBucketBoundaries(t *testing.T) {
	// At or below the smallest bound: bucket 0, including zero and
	// negative (defensive) inputs.
	for _, s := range []float64{latLo, 0, -1, math.Nextafter(latLo, 0)} {
		if b := latBucket(s); b != 0 {
			t.Errorf("latBucket(%g) = %d, want 0", s, b)
		}
	}
	// Exact bucket lower bounds: float log rounding may land the sample
	// one bucket low (the value sits exactly on the edge), but never
	// further, and never high.
	for i := 1; i < latBuckets; i++ {
		lo, _ := latBucketBounds(i)
		b := latBucket(lo)
		if b != i && b != i-1 {
			t.Errorf("latBucket(bound %d = %g) = %d, want %d or %d", i, lo, b, i-1, i)
		}
	}
	// Strictly interior points land exactly.
	for i := 0; i < latBuckets; i++ {
		lo, hi := latBucketBounds(i)
		if i == 0 {
			lo = latLo
		}
		mid := math.Sqrt(lo * hi) // geometric midpoint of a geometric bucket
		if b := latBucket(mid); b != i {
			t.Errorf("latBucket(mid of %d = %g) = %d", i, mid, b)
		}
	}
	// Bounds chain exactly: bucket i's hi is bucket i+1's lo.
	for i := 0; i < latBuckets-1; i++ {
		_, hi := latBucketBounds(i)
		lo, _ := latBucketBounds(i + 1)
		if hi != lo {
			t.Errorf("bucket %d hi %g != bucket %d lo %g", i, hi, i+1, lo)
		}
	}
	// Overflow: anything past the last bound clamps into the last bucket.
	_, lastHi := latBucketBounds(latBuckets - 1)
	for _, s := range []float64{lastHi, lastHi * 2, 1e6, math.MaxFloat64} {
		if b := latBucket(s); b != latBuckets-1 {
			t.Errorf("latBucket(%g) = %d, want overflow bucket %d", s, b, latBuckets-1)
		}
	}
	// Bucket 0's reported range starts at 0 so the histogram covers every
	// non-negative latency.
	if lo, _ := latBucketBounds(0); lo != 0 {
		t.Errorf("bucket 0 lower bound %g, want 0", lo)
	}
}

// TestLatBucketMatchesLog checks the table lookup against the logarithm it
// was built from, wherever a float64 could tell them apart: 1000 floats
// either side of every bucket bound, 10M random floats (random bit patterns,
// and random samples in the histogram's range), and the special values. A
// Prometheus or cluster golden that counts a sample in a different bucket
// would otherwise move.
func TestLatBucketMatchesLog(t *testing.T) {
	check := func(s float64) {
		if got, want := latBucket(s), logBucket(s); got != want {
			t.Fatalf("latBucket(%v) = %d, logBucket = %d", s, got, want)
		}
	}
	for i := 1; i < latBuckets; i++ {
		lo, _ := latBucketBounds(i)
		for _, bound := range []float64{lo, bucketFloor[i]} {
			b := math.Float64bits(bound)
			for d := uint64(0); d <= 1000; d++ {
				check(math.Float64frombits(b + d))
				check(math.Float64frombits(b - d))
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 5_000_000 {
		check(math.Float64frombits(rng.Uint64()))
		check(latLo * math.Pow(latGrowth, rng.Float64()*(latBuckets+2)))
	}
	for _, s := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
		check(s)
	}
	// NaN, of either sign, counts in the overflow bucket.
	for _, s := range []float64{math.NaN(), math.Copysign(math.NaN(), -1)} {
		if b := latBucket(s); b != latBuckets-1 {
			t.Errorf("latBucket(%v) = %d, want the overflow bucket %d", s, b, latBuckets-1)
		}
	}
}
