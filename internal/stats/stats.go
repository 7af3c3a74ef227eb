// Package stats provides the summary statistics the paper's evaluation
// uses: geometric and weighted means (Table 6, Figure 9) and percentiles
// (Table 4's 99th-percentile response times).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// GeometricMean returns the geometric mean of strictly positive values; NaN
// is not one.
// Architects use it "when they don't know the actual mix of programs that
// will be run" (Section 4).
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("stats: geometric mean needs positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// WeightedMean returns the arithmetic mean of xs weighted by ws. The paper's
// weighted mean (Table 6 "WM") uses the actual deployment mix of Table 1. A
// NaN value or weight is an error, not a NaN mean.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ws) {
		return 0, fmt.Errorf("stats: weighted mean needs equal non-empty slices, got %d and %d", len(xs), len(ws))
	}
	var num, den float64
	for i := range xs {
		if !(ws[i] >= 0) {
			return 0, fmt.Errorf("stats: weight %v is negative or NaN", ws[i])
		}
		if math.IsNaN(xs[i]) {
			return 0, fmt.Errorf("stats: weighted mean of a NaN value")
		}
		num += xs[i] * ws[i]
		den += ws[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: weights sum to zero")
	}
	return num / den, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	qs, err := Percentiles(xs, p)
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// Percentiles returns the ps-th percentiles of xs, in the order asked, from
// one copy of xs (see PercentilesInPlace).
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	s := make([]float64, len(xs))
	copy(s, xs)
	return PercentilesInPlace(s, ps...)
}

// PercentilesInPlace is Percentiles on s itself, which it reorders: for a
// caller that has just built s as its own copy. It does not sort s: it
// selects only the ranks the interpolation reads, largest first, so each
// smaller rank is selected inside the prefix the larger one left. The order
// is sort.Float64s's (NaN first), so every value is the one a sorted copy
// would give.
func PercentilesInPlace(s []float64, ps ...float64) ([]float64, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("stats: percentile of empty slice")
	}
	for _, p := range ps {
		if !(p >= 0 && p <= 100) {
			return nil, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
		}
	}
	// Select the largest rank not yet selected until none is left: s[bound:]
	// holds selected ranks, s[:bound] the values below them.
	for bound := len(s); ; {
		k := -1
		for _, p := range ps {
			_, lo, hi := rank(p, len(s))
			if hi < bound {
				k = max(k, hi)
			} else if lo < bound {
				k = max(k, lo)
			}
		}
		if k < 0 {
			break
		}
		selectRank(s[:bound], k)
		bound = k
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		r, lo, hi := rank(p, len(s))
		out[i] = s[lo]
		if lo != hi {
			frac := r - float64(lo)
			out[i] = s[lo]*(1-frac) + s[hi]*frac
		}
	}
	return out, nil
}

// rank is where the p-th percentile of n sorted values falls, and the two
// indices it interpolates between.
func rank(p float64, n int) (r float64, lo, hi int) {
	r = p / 100 * float64(n-1)
	return r, int(math.Floor(r)), int(math.Ceil(r))
}

// less is sort.Float64s's order: NaN before every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// insertionMax is the range length below which selectRank sorts by insertion.
const insertionMax = 16

// selectRank moves the value of rank k (under less) to s[k], with s[:k] ≤ s[k]
// ≤ s[k+1:]. It is an introselect: median-of-3 quickselect, insertion sort
// for a short range, and after 2·log2(n) partition rounds a sort of what is
// left, which bounds the worst case at O(n log n). It reports whether it fell
// back to that sort.
func selectRank(s []float64, k int) (sorted bool) {
	for rounds := 2 * bits.Len(uint(len(s))); len(s) > insertionMax; rounds-- {
		if k == len(s)-1 {
			// The top rank is the maximum: one scan, no partition. Every
			// floor(rank) selected just below its ceil(rank) lands here.
			m := 0
			for i := range s {
				if less(s[m], s[i]) {
					m = i
				}
			}
			s[m], s[k] = s[k], s[m]
			return false
		}
		if rounds == 0 {
			slices.Sort(s)
			return true
		}
		p := partition(s)
		switch {
		case k < p:
			s = s[:p]
		case k > p:
			s, k = s[p+1:], k-p-1
		default:
			return false
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return false
}

// partition picks the median of s's first, middle and last values as the
// pivot and partitions around it (Hoare: both scans stop on an equal value,
// so a run of ties splits evenly). It returns the pivot's final index p:
// s[:p] ≤ s[p] ≤ s[p+1:].
func partition(s []float64) int {
	n := len(s)
	m := n / 2
	if less(s[m], s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if less(s[n-1], s[m]) {
		s[n-1], s[m] = s[m], s[n-1]
		if less(s[m], s[0]) {
			s[m], s[0] = s[0], s[m]
		}
	}
	// s[0] ≤ s[m] ≤ s[n-1]. The pivot goes to s[0], where it stops the
	// downward scan; s[n-1] stops the upward one.
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
	return j
}
