package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/baseline"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/perfmodel"
	"tpusim/internal/platform"
	"tpusim/internal/stats"
)

// Table1Row is one app's characteristics (Table 1).
type Table1Row struct {
	Name                          string
	FC, Conv, Vector, Pool, Total int
	Nonlinear                     string
	WeightsM                      float64
	OpsPerWeightByte              float64
	Batch                         int
	DeployShare                   float64
}

// Table1 reproduces the benchmark census.
func Table1() []Table1Row {
	rows := make([]Table1Row, 0, 6)
	for _, b := range models.All() {
		fc, conv, vec, pool, total := b.Model.LayerCounts()
		var acts []string
		for _, a := range b.Model.Nonlinearities() {
			acts = append(acts, a.String())
		}
		rows = append(rows, Table1Row{
			Name: b.Model.Name, FC: fc, Conv: conv, Vector: vec, Pool: pool, Total: total,
			Nonlinear:        strings.Join(acts, ", "),
			WeightsM:         float64(b.Model.Weights()) / 1e6,
			OpsPerWeightByte: b.Model.OperationalIntensity(),
			Batch:            b.Model.Batch,
			DeployShare:      b.DeployShare,
		})
	}
	return rows
}

// renderTable1 formats Table 1.
func renderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %3s %4s %6s %4s %5s  %-14s %8s %10s %6s %6s\n",
		"Name", "FC", "Conv", "Vector", "Pool", "Total", "Nonlinear", "Weights", "Ops/Byte", "Batch", "Share%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %3d %4d %6d %4d %5d  %-14s %7.1fM %10.0f %6d %6.1f\n",
			r.Name, r.FC, r.Conv, r.Vector, r.Pool, r.Total, r.Nonlinear,
			r.WeightsM, r.OpsPerWeightByte, r.Batch, r.DeployShare)
	}
	return b.String()
}

// Table2Row is one platform's specs (Table 2).
type Table2Row struct {
	Name                              string
	ClockMHz                          float64
	TOPS8, TOPSFP                     float64
	GBs                               float64
	OnChipMiB                         float64
	DieTDP, DieIdle, DieBusy          float64
	Dies                              int
	ServerTDP, ServerIdle, ServerBusy float64
}

// Table2 reproduces the platform table.
func Table2() []Table2Row {
	rows := make([]Table2Row, 0, 3)
	for _, p := range platform.All() {
		rows = append(rows, Table2Row{
			Name: p.Die.Name, ClockMHz: p.Die.ClockMHz,
			TOPS8: p.Die.PeakTOPS8, TOPSFP: p.Die.PeakTOPSFP,
			GBs: p.Die.MemGBs, OnChipMiB: p.Die.OnChipMiB,
			DieTDP: p.Die.TDPWatts, DieIdle: p.Die.IdleWatts, DieBusy: p.Die.BusyWatts,
			Dies: p.Server.Dies, ServerTDP: p.Server.TDPWatts,
			ServerIdle: p.Server.IdleWatts, ServerBusy: p.Server.BusyWatts,
		})
	}
	return rows
}

// renderTable2 formats Table 2.
func renderTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %5s %5s %5s %7s %5s %5s %5s %4s %7s %7s %7s\n",
		"Platform", "MHz", "8bT", "FPT", "GB/s", "MiB", "TDP", "Idle", "Busy", "Dies", "SrvTDP", "SrvIdle", "SrvBusy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6.0f %5.1f %5.1f %5.0f %7.0f %5.0f %5.0f %5.0f %4d %7.0f %7.0f %7.0f\n",
			r.Name, r.ClockMHz, r.TOPS8, r.TOPSFP, r.GBs, r.OnChipMiB,
			r.DieTDP, r.DieIdle, r.DieBusy, r.Dies, r.ServerTDP, r.ServerIdle, r.ServerBusy)
	}
	return b.String()
}

// Table3Row is the counter breakdown for one app (Table 3), with the
// paper's published values alongside.
type Table3Row struct {
	Name                                string
	ArrayActive, UsefulMACs, UnusedMACs float64
	WeightStall, WeightShift, NonMatrix float64
	RAWStall, InputStall                float64
	TOPS                                float64
	PaperTOPS                           float64
}

// Table3 runs the cycle simulator for every app.
func Table3() ([]Table3Row, error) {
	perfs, err := SimulateAll()
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, 0, 6)
	for _, p := range perfs {
		f := p.Counters.Fractions()
		rows = append(rows, Table3Row{
			Name:        p.App.Model.Name,
			ArrayActive: f.ArrayActive, UsefulMACs: f.UsefulMACs, UnusedMACs: f.UnusedMACs,
			WeightStall: f.WeightStall, WeightShift: f.WeightShift, NonMatrix: f.NonMatrix,
			RAWStall: f.RAWStall, InputStall: f.InputStall,
			TOPS: p.TOPS, PaperTOPS: p.App.PaperTOPS,
		})
	}
	return rows, nil
}

// RenderTable3 formats Table 3.
func RenderTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s", r.Name)
	}
	b.WriteString("\n")
	line := func(label string, f func(Table3Row) float64, pct bool) {
		fmt.Fprintf(&b, "%-22s", label)
		for _, r := range rows {
			if pct {
				fmt.Fprintf(&b, "%7.1f%%", f(r)*100)
			} else {
				fmt.Fprintf(&b, "%8.1f", f(r))
			}
		}
		b.WriteString("\n")
	}
	line("Array active", func(r Table3Row) float64 { return r.ArrayActive }, true)
	line("  Useful MACs", func(r Table3Row) float64 { return r.UsefulMACs }, true)
	line("  Unused MACs", func(r Table3Row) float64 { return r.UnusedMACs }, true)
	line("Weight stall", func(r Table3Row) float64 { return r.WeightStall }, true)
	line("Weight shift", func(r Table3Row) float64 { return r.WeightShift }, true)
	line("Non-matrix", func(r Table3Row) float64 { return r.NonMatrix }, true)
	line("RAW stalls", func(r Table3Row) float64 { return r.RAWStall }, true)
	line("Input stalls", func(r Table3Row) float64 { return r.InputStall }, true)
	line("TeraOps/s", func(r Table3Row) float64 { return r.TOPS }, false)
	line("TeraOps/s (paper)", func(r Table3Row) float64 { return r.PaperTOPS }, false)
	return b.String()
}

// Table4Row is one operating point of the MLP0 latency study.
type Table4Row struct {
	Platform  string
	Batch     int
	P99Ms     float64
	IPS       float64
	PctMaxIPS float64
}

// Table4 reproduces the MLP0 response-time/throughput trade-off: for each
// platform, the SLA-constrained point at the small batch and the
// throughput-oriented point at the large batch.
func Table4() ([]Table4Row, error) {
	const (
		slaSeconds = 7e-3
		requests   = 30000
		seed       = 1234
	)
	mlp0, err := models.ByName("MLP0")
	if err != nil {
		return nil, err
	}
	cpu := baseline.CPU()
	gpu := baseline.GPU()

	type device struct {
		name       string
		sm         latency.ServiceModel
		smallBatch int
		bigBatch   int
	}
	devices := []device{
		{"CPU", latency.ServiceFunc(func(n int) (float64, error) { return cpu.BatchSeconds(mlp0, n) }), 16, 64},
		{"GPU", latency.ServiceFunc(func(n int) (float64, error) { return gpu.BatchSeconds(mlp0, n) }), 16, 64},
		{"TPU", latency.ServiceFunc(func(n int) (float64, error) { return TPUBatchSeconds("MLP0", n) }), 200, 250},
	}
	var rows []Table4Row
	for _, d := range devices {
		maxCap, err := latency.Capacity(d.sm, d.bigBatch)
		if err != nil {
			return nil, err
		}
		sla, err := latency.MaxRateUnderSLA(d.sm, d.smallBatch, slaSeconds, requests, seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", d.name, err)
		}
		rows = append(rows, Table4Row{
			Platform: d.name, Batch: d.smallBatch,
			P99Ms: sla.P99 * 1e3, IPS: sla.Throughput,
			PctMaxIPS: sla.Throughput / maxCap * 100,
		})
		big, err := latency.Simulate(d.sm, latency.Config{
			Batch: d.bigBatch, RatePerSecond: maxCap * 0.98, Requests: requests, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table4Row{
			Platform: d.name, Batch: d.bigBatch,
			P99Ms: big.P99 * 1e3, IPS: big.Throughput,
			PctMaxIPS: big.Throughput / maxCap * 100,
		})
	}
	return rows, nil
}

// RenderTable4 formats Table 4.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %6s %10s %10s %8s\n", "Type", "Batch", "p99 (ms)", "IPS", "% max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-5s %6d %10.1f %10.0f %7.0f%%\n", r.Platform, r.Batch, r.P99Ms, r.IPS, r.PctMaxIPS)
	}
	return b.String()
}

// Table5Row is one app's host interaction overhead.
type Table5Row struct {
	Name string
	// HostFrac is the modeled host-interaction share of TPU time (the
	// published Table 5 values, used as the runtime's host model).
	HostFrac float64
	// PCIeFrac is the simulator-computed share of device time spent on
	// PCIe transfers, a lower bound on host interaction.
	PCIeFrac float64
}

// Table5 reports the host interaction model next to the simulated PCIe
// component.
func Table5() ([]Table5Row, error) {
	perfs, err := SimulateAll()
	if err != nil {
		return nil, err
	}
	cfg := 700.0 * 1e6 // cycles per second
	pcieBPS := 14e9
	rows := make([]Table5Row, 0, 6)
	for _, p := range perfs {
		bytes := float64(p.Counters.DMAInBytes + p.Counters.DMAOutBytes)
		pcieSec := bytes / pcieBPS
		rows = append(rows, Table5Row{
			Name:     p.App.Model.Name,
			HostFrac: p.App.HostOverheadFrac,
			PCIeFrac: pcieSec / (float64(p.Counters.Cycles) / cfg),
		})
	}
	return rows, nil
}

// renderTable5 formats Table 5.
func renderTable5(rows []Table5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s\n", "App", "Host/TPU", "PCIe/TPU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %11.0f%% %11.1f%%\n", r.Name, r.HostFrac*100, r.PCIeFrac*100)
	}
	return b.String()
}

// Table6Row is relative per-die performance vs the CPU for one app.
type Table6Row struct {
	Name               string
	GPU, TPU           float64
	PaperGPU, PaperTPU float64
}

// Table6Result is the full table with its means.
type Table6Result struct {
	Rows             []Table6Row
	GPUGM, GPUWM     float64
	TPUGM, TPUWM     float64
	RatioGM, RatioWM float64 // TPU vs GPU
}

var paperTable6 = map[string][2]float64{
	"MLP0": {2.5, 41.0}, "MLP1": {0.3, 18.5}, "LSTM0": {0.4, 3.5},
	"LSTM1": {1.2, 1.2}, "CNN0": {1.6, 40.3}, "CNN1": {2.7, 71.0},
}

// Table6 computes relative inference performance per die, including host
// overhead for the accelerators.
func Table6() (Table6Result, error) {
	cpu := baseline.CPU()
	gpu := baseline.GPU()
	var res Table6Result
	var gpuVals, tpuVals, weights []float64
	for _, b := range models.All() {
		c, err := cpu.SLAIPS(b)
		if err != nil {
			return res, err
		}
		g, err := gpu.SLAIPS(b)
		if err != nil {
			return res, err
		}
		t, err := SimulateTPU(b.Model.Name)
		if err != nil {
			return res, err
		}
		paper := paperTable6[b.Model.Name]
		res.Rows = append(res.Rows, Table6Row{
			Name: b.Model.Name, GPU: g / c, TPU: t.IPS / c,
			PaperGPU: paper[0], PaperTPU: paper[1],
		})
		gpuVals = append(gpuVals, g/c)
		tpuVals = append(tpuVals, t.IPS/c)
		weights = append(weights, b.DeployShare)
	}
	var err error
	if res.GPUGM, err = stats.GeometricMean(gpuVals); err != nil {
		return res, err
	}
	if res.TPUGM, err = stats.GeometricMean(tpuVals); err != nil {
		return res, err
	}
	if res.GPUWM, err = stats.WeightedMean(gpuVals, weights); err != nil {
		return res, err
	}
	if res.TPUWM, err = stats.WeightedMean(tpuVals, weights); err != nil {
		return res, err
	}
	res.RatioGM = res.TPUGM / res.GPUGM
	res.RatioWM = res.TPUWM / res.GPUWM
	return res, nil
}

// renderTable6 formats Table 6.
func renderTable6(r Table6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %8s %12s %12s\n", "App", "GPU/CPU", "TPU/CPU", "paper GPU", "paper TPU")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %8.1f %8.1f %12.1f %12.1f\n", row.Name, row.GPU, row.TPU, row.PaperGPU, row.PaperTPU)
	}
	fmt.Fprintf(&b, "GM     %8.1f %8.1f %12.1f %12.1f\n", r.GPUGM, r.TPUGM, 1.1, 14.5)
	fmt.Fprintf(&b, "WM     %8.1f %8.1f %12.1f %12.1f\n", r.GPUWM, r.TPUWM, 1.9, 29.2)
	fmt.Fprintf(&b, "TPU/GPU: GM %.1f (paper 13.2), WM %.1f (paper 15.3)\n", r.RatioGM, r.RatioWM)
	return b.String()
}

// Table7Row compares the analytic model against the cycle simulator.
type Table7Row struct {
	Name        string
	SimCycles   int64
	ModelCycles float64
	DiffPct     float64
}

// Table7 reproduces the model-validation table.
func Table7() ([]Table7Row, error) {
	rows := make([]Table7Row, 0, 6)
	for _, b := range models.All() {
		p, err := SimulateTPU(b.Model.Name)
		if err != nil {
			return nil, err
		}
		est, err := perfmodel.Estimate(b.Model, b.Model.Batch, perfmodel.Production())
		if err != nil {
			return nil, err
		}
		diff := (est.Cycles - float64(p.Counters.Cycles)) / float64(p.Counters.Cycles)
		if diff < 0 {
			diff = -diff
		}
		rows = append(rows, Table7Row{
			Name: b.Model.Name, SimCycles: p.Counters.Cycles,
			ModelCycles: est.Cycles, DiffPct: diff * 100,
		})
	}
	return rows, nil
}

// renderTable7 formats Table 7.
func renderTable7(rows []Table7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %8s\n", "App", "Simulator", "Model", "Diff")
	sum := 0.0
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12d %12.0f %7.1f%%\n", r.Name, r.SimCycles, r.ModelCycles, r.DiffPct)
		sum += r.DiffPct
	}
	fmt.Fprintf(&b, "average difference %.1f%% (paper: 8%%)\n", sum/float64(len(rows)))
	return b.String()
}

// Table8Row is Unified Buffer usage for one app.
type Table8Row struct {
	Name     string
	ReuseMiB float64
	// NaiveMiB is the ship-date allocator's usage; negative when it
	// exhausts the 24 MiB buffer (the paper's "used its full capacity").
	NaiveMiB float64
	PaperMiB float64
}

var paperTable8 = map[string]float64{
	"MLP0": 11.0, "MLP1": 2.3, "LSTM0": 4.8, "LSTM1": 4.5, "CNN0": 1.5, "CNN1": 13.9,
}

// Table8 measures both allocators' Unified Buffer high-water marks: the
// rows of AllocatorAblation, which come in (naive, reuse) pairs per app, in
// MiB. The reuse allocator must fit every app.
func Table8() ([]Table8Row, error) {
	ab, err := AllocatorAblation()
	if err != nil {
		return nil, err
	}
	mib := func(r AblationRow) float64 {
		if r.Cycles < 0 {
			return -1 // exhausted the 24 MiB buffer
		}
		return float64(r.Cycles) / (1 << 20)
	}
	rows := make([]Table8Row, 0, len(ab)/2)
	for i := 0; i+1 < len(ab); i += 2 {
		naive, reuse := ab[i], ab[i+1]
		if reuse.Cycles < 0 {
			return nil, fmt.Errorf("table 8: %s exhausts the Unified Buffer under the reuse allocator", reuse.App)
		}
		rows = append(rows, Table8Row{
			Name:     reuse.App,
			ReuseMiB: mib(reuse),
			NaiveMiB: mib(naive),
			PaperMiB: paperTable8[reuse.App],
		})
	}
	return rows, nil
}

// renderTable8 formats Table 8.
func renderTable8(rows []Table8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %12s\n", "App", "Reuse MiB", "Naive MiB", "paper MiB")
	for _, r := range rows {
		naive := fmt.Sprintf("%.1f", r.NaiveMiB)
		if r.NaiveMiB < 0 {
			naive = ">24 (full)"
		}
		fmt.Fprintf(&b, "%-6s %12.1f %12s %12.1f\n", r.Name, r.ReuseMiB, naive, r.PaperMiB)
	}
	return b.String()
}
