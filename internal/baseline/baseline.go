// Package baseline models the two comparison platforms of the paper — the
// Haswell E5-2699 v3 CPU and the Nvidia K80 GPU — at the fidelity the
// paper itself uses for them: a roofline over the die's peak rate and
// memory bandwidth (Figures 6-7), response-time-limited batch sizes
// (Table 4), FP32 weight traffic (the CPU/GPU run the NNs in floating
// point, quadrupling bytes per weight), a last-level-cache fit test (MLP1's
// 20 MB of FP32 weights fit Haswell's 51 MiB LLC, which is why "LSTM0 and
// MLP1 are faster on Haswell than on the K80"), and a per-app efficiency
// factor.
//
// Calibration: the MLP0 efficiency factors and the GPU's fixed per-batch
// overhead are fitted to Table 4's published (batch, IPS) anchors; the
// remaining per-app factors are fitted to the achieved-TOPS values implied
// by Tables 3 and 6. The structure (roofline, batch limits, cache fit,
// FP32 traffic) does the modeling work; the factors absorb what the paper
// does not publish about its CPU/GPU software stacks.
package baseline

import (
	"fmt"

	"tpusim/internal/models"
	"tpusim/internal/platform"
)

// Model is one baseline platform's per-die performance model.
type Model struct {
	Platform platform.Platform
	// BytesPerWeight is 4: CPU and GPU inference runs in FP32 ("It was
	// less confusing to present all CPU results in floating point").
	BytesPerWeight float64
	// FixedBatchSeconds is a per-batch overhead (kernel launch, framework
	// dispatch); fitted from Table 4 for the GPU.
	FixedBatchSeconds float64
	// Derate maps app name to the achieved fraction of the roofline.
	Derate map[string]float64
	// SLABatch maps app name to the largest batch meeting the 7 ms
	// 99th-percentile limit (Table 4: MLPs are capped at 16; the other
	// apps use their production batch sizes).
	SLABatch map[string]int
}

// CPU returns the Haswell model.
func CPU() *Model {
	return &Model{
		Platform:       platform.MustSpecs(platform.CPU),
		BytesPerWeight: 4,
		Derate: map[string]float64{
			// Fitted to Table 4 (5,482 IPS at batch 16; 13,194 at 64).
			"MLP0": 0.50,
			// MLP1's weights fit the LLC, making it compute-bound; the
			// remaining factors come from the achieved CPU TOPS implied
			// by Tables 3, 5, and 6 (see package comment).
			"MLP1":  0.23,
			"LSTM0": 0.73,
			"LSTM1": 0.92,
			"CNN0":  0.90,
			"CNN1":  0.13,
		},
		SLABatch: map[string]int{
			"MLP0": 16, "MLP1": 16, "LSTM0": 64, "LSTM1": 96, "CNN0": 8, "CNN1": 32,
		},
	}
}

// GPU returns the K80 per-die model.
func GPU() *Model {
	return &Model{
		Platform:       platform.MustSpecs(platform.GPU),
		BytesPerWeight: 4,
		// Fitted to Table 4: service(B) = 0.503 ms + B/rate.
		FixedBatchSeconds: 0.503e-3,
		Derate: map[string]float64{
			"MLP0":  0.73,
			"MLP1":  0.07,
			"LSTM0": 0.14,
			"LSTM1": 0.51,
			"CNN0":  0.69,
			"CNN1":  0.17,
		},
		SLABatch: map[string]int{
			"MLP0": 16, "MLP1": 16, "LSTM0": 64, "LSTM1": 96, "CNN0": 8, "CNN1": 32,
		},
	}
}

// weightsFitOnChip reports whether the model's FP32 weights fit in on-chip
// storage, lifting the memory-bandwidth limit of the roofline.
func (m *Model) weightsFitOnChip(b models.Benchmark) bool {
	return float64(b.Model.Weights())*m.BytesPerWeight <= m.Platform.Die.OnChipMiB*(1<<20)
}

// RooflineTOPS evaluates the die roofline for an app at a batch size:
// operational intensity is batch * per-weight reuse, divided by bytes per
// weight, in MAC-ops per byte.
func (m *Model) RooflineTOPS(b models.Benchmark, batch int) float64 {
	peak := m.Platform.Die.PeakTOPS()
	if m.weightsFitOnChip(b) {
		return peak
	}
	reuse := float64(b.Model.MACsPerExample()) / float64(b.Model.Weights())
	oi := float64(batch) * reuse / m.BytesPerWeight
	return m.Platform.Die.RooflineTOPS(oi)
}

// AchievedTOPS is the roofline times the app's calibrated efficiency.
func (m *Model) AchievedTOPS(b models.Benchmark, batch int) (float64, error) {
	d, ok := m.Derate[b.Model.Name]
	if !ok {
		return 0, fmt.Errorf("baseline: no calibration for app %q on %s", b.Model.Name, m.Platform.Kind)
	}
	return m.RooflineTOPS(b, batch) * d, nil
}

// BatchSeconds returns the service time for one batch.
func (m *Model) BatchSeconds(b models.Benchmark, batch int) (float64, error) {
	if batch <= 0 {
		return 0, fmt.Errorf("baseline: non-positive batch %d", batch)
	}
	tops, err := m.AchievedTOPS(b, batch)
	if err != nil {
		return 0, err
	}
	ops := 2 * float64(b.Model.MACsPerExample()) * float64(batch)
	return m.FixedBatchSeconds + ops/(tops*1e12), nil
}

// IPS returns per-die inferences per second at a batch size.
func (m *Model) IPS(b models.Benchmark, batch int) (float64, error) {
	s, err := m.BatchSeconds(b, batch)
	if err != nil {
		return 0, err
	}
	return float64(batch) / s, nil
}

// SLAIPS returns throughput at the app's 7 ms-constrained batch size — the
// achieved performance behind Table 6.
func (m *Model) SLAIPS(b models.Benchmark) (float64, error) {
	batch, ok := m.SLABatch[b.Model.Name]
	if !ok {
		return 0, fmt.Errorf("baseline: no SLA batch for app %q on %s", b.Model.Name, m.Platform.Kind)
	}
	return m.IPS(b, batch)
}
