package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/models"
	"tpusim/internal/perfmodel"
	"tpusim/internal/stats"
)

// BoostModeResult quantifies Section 8's K80 Boost-mode fallacy: raising
// the clock from 560 to 875 MHz gains performance but costs power, so the
// perf/Watt gain is minor ("the net gain in performance/Watt is 1.1X").
type BoostModeResult struct {
	ClockRatio      float64
	PerfGain        float64
	PowerGain       float64
	PerfPerWattGain float64
}

// BoostMode evaluates Boost mode on LSTM1 as the paper did. Our K80 model
// is peak-bound for LSTM1 at its batch, so performance scales with the
// clock up to the paper's measured 1.4x, while power rises by the measured
// 1.3x.
func BoostMode() BoostModeResult {
	const (
		baseClock  = 560.0
		boostClock = 875.0
		// The paper measured performance up 1.4x (not the full 1.56x
		// clock ratio) and power up 1.3x.
		measuredPerfGain  = 1.4
		measuredPowerGain = 1.3
	)
	ratio := boostClock / baseClock
	perf := ratio
	if perf > measuredPerfGain {
		perf = measuredPerfGain // thermal/memory effects cap the gain
	}
	return BoostModeResult{
		ClockRatio:      ratio,
		PerfGain:        perf,
		PowerGain:       measuredPowerGain,
		PerfPerWattGain: perf / measuredPowerGain,
	}
}

// CPU8BitResult quantifies the "use the CPU more efficiently" fallacy: an
// 8-bit AVX2 port sped one DNN up ~3.5x; applying that to all DNNs shrinks
// the TPU's incremental perf/Watt advantage from 41-83x to 12-24x — still
// an order of magnitude.
type CPU8BitResult struct {
	SpeedupApplied     float64
	BeforeGM, BeforeWM float64
	AfterGM, AfterWM   float64
}

// CPU8Bit recomputes the Figure 9 incremental band with a 3.5x-faster CPU.
func CPU8Bit() (CPU8BitResult, error) {
	bars, err := Figure9()
	if err != nil {
		return CPU8BitResult{}, err
	}
	const speedup = 3.5
	for _, b := range bars {
		if b.Label == "TPU/CPU" && !b.Total {
			return CPU8BitResult{
				SpeedupApplied: speedup,
				BeforeGM:       b.GM, BeforeWM: b.WM,
				AfterGM: b.GM / speedup, AfterWM: b.WM / speedup,
			}, nil
		}
	}
	return CPU8BitResult{}, fmt.Errorf("experiments: TPU/CPU incremental bar missing")
}

// IPSFallacyResult quantifies the pitfall that inferences/second is a poor
// summary metric: across the six apps the TPU's IPS varies by a factor
// that says more about the models than the hardware (paper: 75x between
// MLP1 and CNN1).
type IPSFallacyResult struct {
	MinApp, MaxApp string
	MinIPS, MaxIPS float64
	Ratio          float64
}

// IPSFallacy measures the IPS spread on the simulator.
func IPSFallacy() (IPSFallacyResult, error) {
	perfs, err := SimulateAll()
	if err != nil {
		return IPSFallacyResult{}, err
	}
	res := IPSFallacyResult{MinIPS: perfs[0].IPS, MaxIPS: perfs[0].IPS,
		MinApp: perfs[0].App.Model.Name, MaxApp: perfs[0].App.Model.Name}
	for _, p := range perfs[1:] {
		if p.IPS < res.MinIPS {
			res.MinIPS, res.MinApp = p.IPS, p.App.Model.Name
		}
		if p.IPS > res.MaxIPS {
			res.MaxIPS, res.MaxApp = p.IPS, p.App.Model.Name
		}
	}
	res.Ratio = res.MaxIPS / res.MinIPS
	return res, nil
}

// ZeroSkipRow is the sparsity extension's estimate for one app.
type ZeroSkipRow struct {
	App     string
	Speedup float64
}

// ZeroSkipStudy estimates Cnvlutin-style zero-skipping (44% zero
// activations) on each app plus the weighted mean — the "future designs"
// extension the shipped TPU omitted for schedule reasons.
func ZeroSkipStudy() ([]ZeroSkipRow, float64, error) {
	const zeroFrac = 0.44
	var rows []ZeroSkipRow
	var vals, weights []float64
	for _, b := range models.All() {
		sp, err := perfmodel.ZeroSkipSpeedup(b.Model, zeroFrac)
		if err != nil {
			return nil, 0, err
		}
		rows = append(rows, ZeroSkipRow{App: b.Model.Name, Speedup: sp})
		vals = append(vals, sp)
		weights = append(weights, b.DeployShare)
	}
	wm, err := stats.WeightedMean(vals, weights)
	if err != nil {
		return nil, 0, err
	}
	return rows, wm, nil
}

// renderSection8 formats the fallacy/pitfall studies.
func renderSection8() (string, error) {
	var b strings.Builder
	bm := BoostMode()
	fmt.Fprintf(&b, "K80 Boost mode (LSTM1): clock x%.2f -> perf x%.2f, power x%.2f, perf/W x%.2f (paper: 1.1)\n",
		bm.ClockRatio, bm.PerfGain, bm.PowerGain, bm.PerfPerWattGain)
	c8, err := CPU8Bit()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "CPU with 8-bit AVX2 (x%.1f): TPU incremental perf/W falls %.0f-%.0f -> %.0f-%.0f (paper: 41-83 -> 12-24)\n",
		c8.SpeedupApplied, c8.BeforeGM, c8.BeforeWM, c8.AfterGM, c8.AfterWM)
	ips, err := IPSFallacy()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "IPS pitfall: %s %.0f IPS vs %s %.0f IPS -> %.0fx spread (paper: 75x)\n",
		ips.MaxApp, ips.MaxIPS, ips.MinApp, ips.MinIPS, ips.Ratio)
	rows, wm, err := ZeroSkipStudy()
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Zero-skipping extension (44%% zero activations):")
	for _, r := range rows {
		fmt.Fprintf(&b, " %s x%.2f", r.App, r.Speedup)
	}
	fmt.Fprintf(&b, "  WM x%.2f (Cnvlutin reports x1.4 on CNNs)\n", wm)
	return b.String(), nil
}
