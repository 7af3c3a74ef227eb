package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/baseline"
	"tpusim/internal/models"
	"tpusim/internal/perfmodel"
	"tpusim/internal/platform"
	"tpusim/internal/power"
	"tpusim/internal/stats"
	"tpusim/internal/workload"
)

// RooflinePoint is one app plotted on a roofline (Figures 5-8).
type RooflinePoint struct {
	App string
	// OI is operational intensity in MAC-ops per weight byte as seen by
	// the platform (FP platforms fetch 4 bytes per weight).
	OI float64
	// TOPS is achieved TeraOps/s.
	TOPS float64
	// Ceiling is the roofline value directly above the point.
	Ceiling float64
}

// Roofline is one platform's roofline with its app points.
type Roofline struct {
	Platform platform.Kind
	PeakTOPS float64
	RidgeOI  float64
	Points   []RooflinePoint
}

// RooflineTPU produces Figure 5 from the cycle simulator.
func RooflineTPU() (Roofline, error) {
	die := platform.MustSpecs(platform.TPU).Die
	r := Roofline{Platform: platform.TPU, PeakTOPS: die.PeakTOPS(), RidgeOI: die.RidgeOI()}
	for _, b := range models.All() {
		p, err := SimulateTPU(b.Model.Name)
		if err != nil {
			return Roofline{}, err
		}
		oi := b.Model.OperationalIntensity()
		r.Points = append(r.Points, RooflinePoint{
			App: b.Model.Name, OI: oi, TOPS: p.TOPS, Ceiling: die.RooflineTOPS(oi),
		})
	}
	return r, nil
}

// RooflineBaseline produces Figure 6 (CPU) or Figure 7 (GPU).
func RooflineBaseline(k platform.Kind) (Roofline, error) {
	var m *baseline.Model
	switch k {
	case platform.CPU:
		m = baseline.CPU()
	case platform.GPU:
		m = baseline.GPU()
	default:
		return Roofline{}, fmt.Errorf("experiments: no baseline roofline for %v", k)
	}
	die := m.Platform.Die
	r := Roofline{Platform: k, PeakTOPS: die.PeakTOPS(), RidgeOI: die.RidgeOI()}
	for _, b := range models.All() {
		batch := m.SLABatch[b.Model.Name]
		tops, err := m.AchievedTOPS(b, batch)
		if err != nil {
			return Roofline{}, err
		}
		reuse := float64(b.Model.MACsPerExample()) / float64(b.Model.Weights())
		oi := float64(batch) * reuse / m.BytesPerWeight
		r.Points = append(r.Points, RooflinePoint{
			App: b.Model.Name, OI: oi, TOPS: tops, Ceiling: m.RooflineTOPS(b, batch),
		})
	}
	return r, nil
}

// Figure8 returns all three rooflines (the combined log-log plot).
func Figure8() ([]Roofline, error) {
	tpuR, err := RooflineTPU()
	if err != nil {
		return nil, err
	}
	cpuR, err := RooflineBaseline(platform.CPU)
	if err != nil {
		return nil, err
	}
	gpuR, err := RooflineBaseline(platform.GPU)
	if err != nil {
		return nil, err
	}
	return []Roofline{tpuR, cpuR, gpuR}, nil
}

// rooflineOf returns the generator of platform k's baseline roofline.
func rooflineOf(k platform.Kind) func() (Roofline, error) {
	return func() (Roofline, error) { return RooflineBaseline(k) }
}

// renderRooflines formats rooflines one after another.
func renderRooflines(rs []Roofline) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(renderRoofline(r))
	}
	return b.String()
}

// renderRoofline formats one roofline.
func renderRoofline(r Roofline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s roofline: peak %.1f TOPS, ridge %.0f ops/byte\n", r.Platform, r.PeakTOPS, r.RidgeOI)
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %9s\n", "App", "OI (ops/B)", "TOPS", "ceiling", "% ceiling")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6s %12.0f %12.2f %12.2f %8.0f%%\n",
			p.App, p.OI, p.TOPS, p.Ceiling, p.TOPS/p.Ceiling*100)
	}
	return b.String()
}

// Figure9Bar is one relative performance/Watt bar.
type Figure9Bar struct {
	Label            string
	Total            bool // total vs incremental power accounting
	GM, WM           float64
	PaperGM, PaperWM float64
}

// Figure9 computes the perf/Watt comparison: K80/CPU, TPU/CPU, TPU/GPU,
// TPU'/CPU, TPU'/GPU for total and incremental TDP accounting.
func Figure9() ([]Figure9Bar, error) {
	t6, err := Table6()
	if err != nil {
		return nil, err
	}
	// Host-adjusted TPU' speedups.
	var primeVals, weights []float64
	for i, b := range models.All() {
		sp, err := TPUPrimeSpeedup(b.Model.Name)
		if err != nil {
			return nil, err
		}
		primeVals = append(primeVals, t6.Rows[i].TPU*sp)
		weights = append(weights, b.DeployShare)
	}
	primeGM, err := stats.GeometricMean(primeVals)
	if err != nil {
		return nil, err
	}
	primeWM, err := stats.WeightedMean(primeVals, weights)
	if err != nil {
		return nil, err
	}

	gpuP := platform.MustSpecs(platform.GPU)
	tpuP := platform.MustSpecs(platform.TPU)
	primeP := platform.MustSpecs(platform.TPUPrime)

	perW := func(p platform.Platform, gm, wm float64, incr bool) (float64, float64, error) {
		g, err := power.PerfPerWattTDP(p, gm, incr)
		if err != nil {
			return 0, 0, err
		}
		w, err := power.PerfPerWattTDP(p, wm, incr)
		if err != nil {
			return 0, 0, err
		}
		return g, w, nil
	}

	type spec struct {
		label            string
		p                platform.Platform
		gm, wm           float64
		denomGM, denomWM float64    // divide by this bar (for TPU/GPU ratios)
		paperGM, paperWM [2]float64 // [total, incremental]
	}
	specs := []spec{
		{"GPU/CPU", gpuP, t6.GPUGM, t6.GPUWM, 0, 0, [2]float64{1.2, 1.7}, [2]float64{2.1, 2.9}},
		{"TPU/CPU", tpuP, t6.TPUGM, t6.TPUWM, 0, 0, [2]float64{17, 41}, [2]float64{34, 83}},
		{"TPU'/CPU", primeP, primeGM, primeWM, 0, 0, [2]float64{31, 69}, [2]float64{86, 196}},
	}
	var bars []Figure9Bar
	for _, total := range []bool{true, false} {
		var gpuBar, tpuBar, primeBar Figure9Bar
		for i, s := range specs {
			g, w, err := perW(s.p, s.gm, s.wm, !total)
			if err != nil {
				return nil, err
			}
			idx := 0
			if !total {
				idx = 1
			}
			bar := Figure9Bar{
				Label: s.label, Total: total, GM: g, WM: w,
				PaperGM: s.paperGM[idx], PaperWM: s.paperWM[idx],
			}
			bars = append(bars, bar)
			switch i {
			case 0:
				gpuBar = bar
			case 1:
				tpuBar = bar
			case 2:
				primeBar = bar
			}
		}
		paperRatio := [2][2]float64{{14, 16}, {25, 29}} // [total/incr][GM/WM]
		idx := 0
		if !total {
			idx = 1
		}
		bars = append(bars, Figure9Bar{
			Label: "TPU/GPU", Total: total,
			GM: tpuBar.GM / gpuBar.GM, WM: tpuBar.WM / gpuBar.WM,
			PaperGM: paperRatio[idx][0], PaperWM: paperRatio[idx][1],
		})
		paperPrime := [2][2]float64{{25, 41}, {42, 68}}
		bars = append(bars, Figure9Bar{
			Label: "TPU'/GPU", Total: total,
			GM: primeBar.GM / gpuBar.GM, WM: primeBar.WM / gpuBar.WM,
			PaperGM: paperPrime[idx][0], PaperWM: paperPrime[idx][1],
		})
	}
	return bars, nil
}

// renderFigure9 formats the bars.
func renderFigure9(bars []Figure9Bar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s %-12s %8s %8s %10s %10s\n", "Bar", "Accounting", "GM", "WM", "paper GM", "paper WM")
	for _, bar := range bars {
		acct := "total"
		if !bar.Total {
			acct = "incremental"
		}
		fmt.Fprintf(&b, "%-9s %-12s %8.1f %8.1f %10.1f %10.1f\n",
			bar.Label, acct, bar.GM, bar.WM, bar.PaperGM, bar.PaperWM)
	}
	return b.String()
}

// Figure10Row is per-die power at one utilization bucket.
type Figure10Row struct {
	Utilization  float64
	CPUTotal     float64
	GPUTotal     float64
	GPUIncrement float64
	TPUTotal     float64
	TPUIncrement float64
}

// Figure10 sweeps utilization 0-100% for the CNN0 workload anchors.
func Figure10() ([]Figure10Row, error) {
	return Figure10With(power.AnchorsCNN0())
}

// Figure10With sweeps utilization with explicit proportionality anchors
// (the paper gives a second data point for LSTM1: 47/78/94% at 10% load).
func Figure10With(a power.Anchors) ([]Figure10Row, error) {
	m := power.NewModel(a)
	var rows []Figure10Row
	for _, u := range workload.UtilizationSweep() {
		cpuT, err := m.TotalPerDie(platform.CPU, u)
		if err != nil {
			return nil, err
		}
		gpuT, err := m.TotalPerDie(platform.GPU, u)
		if err != nil {
			return nil, err
		}
		gpuI, err := m.IncrementalPerDie(platform.GPU, u)
		if err != nil {
			return nil, err
		}
		tpuT, err := m.TotalPerDie(platform.TPU, u)
		if err != nil {
			return nil, err
		}
		tpuI, err := m.IncrementalPerDie(platform.TPU, u)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure10Row{
			Utilization: u, CPUTotal: cpuT,
			GPUTotal: gpuT, GPUIncrement: gpuI,
			TPUTotal: tpuT, TPUIncrement: tpuI,
		})
	}
	return rows, nil
}

// renderFigure10 formats the power sweep.
func renderFigure10(rows []Figure10Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %10s %10s %10s %10s %10s\n",
		"Load", "CPU W/die", "GPU total", "GPU incr", "TPU total", "TPU incr")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4.0f%% %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			r.Utilization*100, r.CPUTotal, r.GPUTotal, r.GPUIncrement, r.TPUTotal, r.TPUIncrement)
	}
	return b.String()
}

// figure10BothAnchors renders Figure 10 under the CNN0 anchors and, below
// it, under the LSTM1 anchors, the paper's second data point.
func figure10BothAnchors() (string, error) {
	var b strings.Builder
	for _, a := range []struct {
		head    string
		anchors power.Anchors
	}{
		{"CNN0 anchors (56/66/88% at 10% load):\n", power.AnchorsCNN0()},
		{"\nLSTM1 anchors (47/78/94% at 10% load):\n", power.AnchorsLSTM1()},
	} {
		rows, err := Figure10With(a.anchors)
		if err != nil {
			return "", err
		}
		b.WriteString(a.head + renderFigure10(rows))
	}
	return b.String(), nil
}

// Figure11Row is the weighted-mean relative performance of one knob at one
// scale.
type Figure11Row struct {
	Knob  perfmodel.Knob
	Scale float64
	// WM is the deployment-weighted mean across the six apps; PerApp has
	// the individual values in Table 1 order.
	WM     float64
	PerApp []float64
}

// Figure11 sweeps the five design knobs over 0.25x-4x.
func Figure11() ([]Figure11Row, error) {
	scales := []float64{0.25, 0.5, 1, 2, 4}
	var rows []Figure11Row
	for _, k := range perfmodel.Knobs() {
		for _, s := range scales {
			var vals, weights []float64
			for _, b := range models.All() {
				v, err := perfmodel.Sensitivity(b.Model, k, s)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
				weights = append(weights, b.DeployShare)
			}
			wm, err := stats.WeightedMean(vals, weights)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Figure11Row{Knob: k, Scale: s, WM: wm, PerApp: vals})
		}
	}
	return rows, nil
}

// renderFigure11 formats the sensitivity sweep.
func renderFigure11(rows []Figure11Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %6s %6s  %s\n", "Knob", "Scale", "WM", "per-app (MLP0 MLP1 LSTM0 LSTM1 CNN0 CNN1)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %5.2fx %6.2f ", r.Knob, r.Scale, r.WM)
		for _, v := range r.PerApp {
			fmt.Fprintf(&b, " %5.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}
