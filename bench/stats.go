package main

import (
	"math"
	"sort"
)

// quantile returns the q-th quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is the spread of one metric over a run's repetitions.
type summary struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	return summary{
		Min: quantile(xs, 0), Q1: quantile(xs, 0.25), Median: median(xs),
		Q3: quantile(xs, 0.75), Max: quantile(xs, 1),
	}
}
