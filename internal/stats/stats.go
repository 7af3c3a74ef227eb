// Package stats provides the summary statistics the paper's evaluation
// uses: geometric and weighted means (Table 6, Figure 9) and percentiles
// (Table 4's 99th-percentile response times).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// GeometricMean returns the geometric mean of strictly positive values.
// Architects use it "when they don't know the actual mix of programs that
// will be run" (Section 4).
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geometric mean needs positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// WeightedMean returns the arithmetic mean of xs weighted by ws. The paper's
// weighted mean (Table 6 "WM") uses the actual deployment mix of Table 1.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ws) {
		return 0, fmt.Errorf("stats: weighted mean needs equal non-empty slices, got %d and %d", len(xs), len(ws))
	}
	var num, den float64
	for i := range xs {
		if ws[i] < 0 {
			return 0, fmt.Errorf("stats: negative weight %v", ws[i])
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

// Percentiles returns the ps-th percentiles of xs, in the order asked,
// from one copy and one sort of xs — a reader that wants a p50 and a p99
// of the same samples pays for the sort once.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: percentile of empty slice")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 100 {
			return nil, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
		}
		rank := p / 100 * float64(len(s)-1)
		lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
		out[i] = s[lo]
		if lo != hi {
			frac := rank - float64(lo)
			out[i] = s[lo]*(1-frac) + s[hi]*frac
		}
	}
	return out, nil
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}
