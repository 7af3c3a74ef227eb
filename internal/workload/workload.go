// Package workload generates the synthetic request streams the evaluation
// drives the platforms with: Poisson open-loop arrivals for the
// 99th-percentile latency study (Table 4) and stepped utilization sweeps
// for the energy-proportionality study (Figure 10, "collected in buckets of
// 10% delta of workload").
package workload

import (
	"fmt"
	"math/rand"
)

// Arrivals generates request arrival timestamps in seconds.
type Arrivals interface {
	// Next returns the next arrival time; times are nondecreasing.
	Next() float64
}

// Poisson is an open-loop Poisson arrival process (exponential
// inter-arrival times) — the standard model for independent user-facing
// requests.
type Poisson struct {
	rate float64
	rng  *rand.Rand
	now  float64
}

// NewPoisson creates a Poisson process with the given rate (requests per
// second) and deterministic seed.
func NewPoisson(rate float64, seed int64) (*Poisson, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: non-positive rate %v", rate)
	}
	return &Poisson{rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next returns the next arrival time.
func (p *Poisson) Next() float64 {
	p.now += p.rng.ExpFloat64() / p.rate
	return p.now
}

// UtilizationSweep returns the offered-load fractions for Figure 10's
// energy-proportionality buckets: 0%, 10%, ..., 100%.
func UtilizationSweep() []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = float64(i) / 10
	}
	return out
}

// Collect drains n arrivals from a process.
func Collect(a Arrivals, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}
