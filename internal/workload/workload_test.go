package workload

import (
	"math"
	"testing"
)

func TestPoissonDeterministic(t *testing.T) {
	a, _ := NewPoisson(100, 42)
	b, _ := NewPoisson(100, 42)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestPoissonRate(t *testing.T) {
	p, err := NewPoisson(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	times := Collect(p, 20000)
	rate := MeanRate(times)
	if math.Abs(rate-1000)/1000 > 0.05 {
		t.Errorf("empirical rate %v, want ~1000", rate)
	}
	// Nondecreasing.
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatal("arrival times decreased")
		}
	}
}

func TestPoissonErrors(t *testing.T) {
	if _, err := NewPoisson(0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := NewPoisson(-5, 1); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestUtilizationSweep(t *testing.T) {
	s := UtilizationSweep()
	if len(s) != 11 || s[0] != 0 || s[10] != 1 || s[5] != 0.5 {
		t.Errorf("sweep = %v", s)
	}
}

func TestMeanRateDegenerate(t *testing.T) {
	if MeanRate(nil) != 0 {
		t.Error("empty series should be 0")
	}
	if MeanRate([]float64{1}) != 0 {
		t.Error("single point should be 0")
	}
	if !math.IsInf(MeanRate([]float64{1, 1}), 1) {
		t.Error("zero span should be +inf")
	}
}

// MeanRate estimates the empirical rate of a timestamp series.
func MeanRate(times []float64) float64 {
	if len(times) < 2 {
		return 0
	}
	span := times[len(times)-1] - times[0]
	if span <= 0 {
		return math.Inf(1)
	}
	return float64(len(times)-1) / span
}
