package experiments

import (
	"fmt"
	"math"
	"strings"

	"tpusim/internal/baseline"
	"tpusim/internal/compiler"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/platform"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// QuantizationRow reports int8 inference quality for one benchmark
// structure (miniature variant, run through the full simulated datapath).
type QuantizationRow struct {
	App string
	// MaxAbsErr and RMSErr compare dequantized device output against the
	// float32 reference.
	MaxAbsErr, RMSErr float64
	// OutputRange is the reference output's max |value|, for scale.
	OutputRange float64
}

// QuantizationStudy quantifies Section 1's claim that 8-bit integers "are
// usually good enough for inference": it runs each benchmark structure
// through the quantized datapath and measures divergence from float32.
func QuantizationStudy() ([]QuantizationRow, error) {
	var rows []QuantizationRow
	for _, name := range models.Names() {
		m, err := models.Tiny(name)
		if err != nil {
			return nil, err
		}
		params := nn.InitRandom(m, 21, 0.25)
		in := tensor.NewF32(m.BatchInputShape()...)
		in.FillRandom(22, 1)

		want, err := nn.Forward(m, params, in)
		if err != nil {
			return nil, err
		}
		qm, err := nn.QuantizeModel(m, params, in)
		if err != nil {
			return nil, err
		}
		art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
		if err != nil {
			return nil, err
		}
		host, err := compiler.PackInput(art, qm.QuantizeInput(in))
		if err != nil {
			return nil, err
		}
		cfg := tpu.DefaultConfig()
		cfg.Functional = true
		dev, err := tpu.New(cfg)
		if err != nil {
			return nil, err
		}
		if _, err := dev.Run(art.Program, host); err != nil {
			return nil, err
		}
		qout, err := compiler.UnpackOutput(art, host)
		if err != nil {
			return nil, err
		}
		got := qm.DequantizeOutput(qout)

		var maxErr, sumSq, rangeMax float64
		for i := range want.Data {
			e := math.Abs(float64(got.Data[i] - want.Data[i]))
			if e > maxErr {
				maxErr = e
			}
			sumSq += e * e
			if a := math.Abs(float64(want.Data[i])); a > rangeMax {
				rangeMax = a
			}
		}
		rows = append(rows, QuantizationRow{
			App: name, MaxAbsErr: maxErr,
			RMSErr:      math.Sqrt(sumSq / float64(len(want.Data))),
			OutputRange: rangeMax,
		})
	}
	return rows, nil
}

// renderQuantization formats the study.
func renderQuantization(rows []QuantizationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %12s\n", "App", "max err", "rms err", "out range", "max err %")
	for _, r := range rows {
		pct := 0.0
		if r.OutputRange > 0 {
			pct = r.MaxAbsErr / r.OutputRange * 100
		}
		fmt.Fprintf(&b, "%-6s %12.4f %12.4f %12.3f %11.1f%%\n",
			r.App, r.MaxAbsErr, r.RMSErr, r.OutputRange, pct)
	}
	return b.String()
}

// EnergyRow is energy per inference for one app on each platform at full
// load (server busy watts divided by server throughput).
type EnergyRow struct {
	App                             string
	CPUJoules, GPUJoules, TPUJoules float64
	// TPUAdvantage is CPU J/inf over TPU J/inf.
	TPUAdvantage float64
}

// EnergyPerInference derives J/inference from the platform power models
// and the Table 6 throughputs — the per-request view of Figure 9.
func EnergyPerInference() ([]EnergyRow, error) {
	t6, err := Table6()
	if err != nil {
		return nil, err
	}
	cpuSrv := platform.MustSpecs(platform.CPU).Server
	gpuSrv := platform.MustSpecs(platform.GPU).Server
	tpuSrv := platform.MustSpecs(platform.TPU).Server
	cpu := baseline.CPU()
	var rows []EnergyRow
	for i, b := range models.All() {
		cpuIPS, err := cpu.SLAIPS(b)
		if err != nil {
			return nil, err
		}
		cpuServerIPS := cpuIPS * float64(cpuSrv.Dies)
		gpuServerIPS := cpuIPS * t6.Rows[i].GPU * float64(gpuSrv.Dies)
		tpuServerIPS := cpuIPS * t6.Rows[i].TPU * float64(tpuSrv.Dies)
		r := EnergyRow{
			App:       b.Model.Name,
			CPUJoules: cpuSrv.BusyWatts / cpuServerIPS,
			GPUJoules: gpuSrv.BusyWatts / gpuServerIPS,
			TPUJoules: tpuSrv.BusyWatts / tpuServerIPS,
		}
		r.TPUAdvantage = r.CPUJoules / r.TPUJoules
		rows = append(rows, r)
	}
	return rows, nil
}

// renderEnergy formats the J/inference table.
func renderEnergy(rows []EnergyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %12s %12s %12s %10s\n", "App", "CPU mJ/inf", "GPU mJ/inf", "TPU mJ/inf", "CPU/TPU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %12.3f %12.3f %12.3f %9.0fx\n",
			r.App, r.CPUJoules*1e3, r.GPUJoules*1e3, r.TPUJoules*1e3, r.TPUAdvantage)
	}
	return b.String()
}
