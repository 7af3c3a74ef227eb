package experiments

import (
	"strings"
	"testing"
)

// TestQuantizationStudy: "8 bits are usually good enough for inference" —
// every benchmark structure's int8 datapath output stays within a few
// percent of the float32 reference.
func TestQuantizationStudy(t *testing.T) {
	rows, err := QuantizationStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.OutputRange <= 0 {
			t.Errorf("%s: degenerate output range", r.App)
			continue
		}
		rel := r.MaxAbsErr / r.OutputRange
		if rel > 0.15 {
			t.Errorf("%s: max quantization error %.1f%% of output range", r.App, rel*100)
		}
		if r.RMSErr > r.MaxAbsErr {
			t.Errorf("%s: rms %v exceeds max %v", r.App, r.RMSErr, r.MaxAbsErr)
		}
	}
	if s := renderQuantization(rows); !strings.Contains(s, "max err") {
		t.Error("render incomplete")
	}
}

// TestEnergyPerInference: the TPU spends orders of magnitude less energy
// per request than the CPU — the per-request view of Figure 9.
func TestEnergyPerInference(t *testing.T) {
	rows, err := EnergyPerInference()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TPUJoules <= 0 || r.CPUJoules <= 0 || r.GPUJoules <= 0 {
			t.Errorf("%s: non-positive energy", r.App)
		}
		if r.TPUJoules >= r.CPUJoules {
			t.Errorf("%s: TPU %.4f J/inf not below CPU %.4f", r.App, r.TPUJoules, r.CPUJoules)
		}
	}
	// On the dominant app the advantage is large (Figure 9's 30-80x band
	// divided among dies and TDP vs busy accounting still leaves >10x).
	for _, r := range rows {
		if r.App == "MLP0" && r.TPUAdvantage < 10 {
			t.Errorf("MLP0 energy advantage = %.0fx, want >10x", r.TPUAdvantage)
		}
	}
	if s := renderEnergy(rows); !strings.Contains(s, "CPU/TPU") {
		t.Error("render incomplete")
	}
}
