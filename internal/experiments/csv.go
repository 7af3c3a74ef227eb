package experiments

import (
	"fmt"
	"math"
	"strings"

	"tpusim/internal/models"
	"tpusim/internal/platform"
)

// CSV renders tpubench -csv's blocks in order, each under a "# name" line
// and followed by a blank line.
func CSV() (string, error) {
	var b strings.Builder
	for _, s := range []Section{
		section("rooflines", "", Figure8, csvRooflines),
		section("table3", "", Table3, csvTable3),
		section("table6", "", Table6, csvTable6),
		section("figure10", "", Figure10, csvFigure10),
		section("figure11", "", Figure11, csvFigure11),
		{ID: "batchsweep", Render: csvBatchSweep},
		section("sla", "", SLAStudy, csvSLA),
		{ID: "roofline_curves", Render: csvRooflineCurves},
	} {
		out, err := s.Render()
		if err != nil {
			return "", fmt.Errorf("experiments: csv %s: %w", s.ID, err)
		}
		fmt.Fprintf(&b, "# %s\n%s\n", s.ID, out)
	}
	return b.String(), nil
}

// csvRooflines emits Figure 8's points as CSV for plotting.
func csvRooflines(rls []Roofline) string {
	var b strings.Builder
	b.WriteString("platform,app,ops_per_byte,tops,ceiling_tops,peak_tops,ridge\n")
	for _, r := range rls {
		for _, p := range r.Points {
			fmt.Fprintf(&b, "%s,%s,%.2f,%.4f,%.4f,%.2f,%.1f\n",
				r.Platform, p.App, p.OI, p.TOPS, p.Ceiling, r.PeakTOPS, r.RidgeOI)
		}
	}
	return b.String()
}

// csvFigure10 emits the power-vs-load curves as CSV.
func csvFigure10(rows []Figure10Row) string {
	var b strings.Builder
	b.WriteString("utilization,cpu_total_w,gpu_total_w,gpu_incremental_w,tpu_total_w,tpu_incremental_w\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%.2f,%.2f,%.2f,%.2f,%.2f,%.2f\n",
			r.Utilization, r.CPUTotal, r.GPUTotal, r.GPUIncrement, r.TPUTotal, r.TPUIncrement)
	}
	return b.String()
}

// csvFigure11 emits the design-sensitivity sweep as CSV.
func csvFigure11(rows []Figure11Row) string {
	var b strings.Builder
	b.WriteString("knob,scale,weighted_mean,mlp0,mlp1,lstm0,lstm1,cnn0,cnn1\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.2f,%.4f", r.Knob, r.Scale, r.WM)
		for _, v := range r.PerApp {
			fmt.Fprintf(&b, ",%.4f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// csvTable3 emits the counter breakdown as CSV.
func csvTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("app,array_active,useful_macs,unused_macs,weight_stall,weight_shift,non_matrix,raw_stall,input_stall,tops,paper_tops\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.2f,%.2f\n",
			r.Name, r.ArrayActive, r.UsefulMACs, r.UnusedMACs, r.WeightStall,
			r.WeightShift, r.NonMatrix, r.RAWStall, r.InputStall, r.TOPS, r.PaperTOPS)
	}
	return b.String()
}

// csvTable6 emits the relative-performance table as CSV.
func csvTable6(t6 Table6Result) string {
	var b strings.Builder
	b.WriteString("app,gpu_vs_cpu,tpu_vs_cpu,paper_gpu,paper_tpu\n")
	for _, r := range t6.Rows {
		fmt.Fprintf(&b, "%s,%.3f,%.3f,%.1f,%.1f\n", r.Name, r.GPU, r.TPU, r.PaperGPU, r.PaperTPU)
	}
	fmt.Fprintf(&b, "GM,%.3f,%.3f,1.1,14.5\nWM,%.3f,%.3f,1.9,29.2\n",
		t6.GPUGM, t6.TPUGM, t6.GPUWM, t6.TPUWM)
	return b.String()
}

// csvSLA emits the all-apps SLA study as CSV.
func csvSLA(rows []SLARow) string {
	var b strings.Builder
	b.WriteString("app,platform,batch,ips,p99_ms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%.1f,%.3f\n", r.App, r.Platform, r.Batch, r.IPS, r.P99Ms)
	}
	return b.String()
}

// csvBatchSweep emits batch-sensitivity curves for all apps as CSV.
func csvBatchSweep() (string, error) {
	var b strings.Builder
	b.WriteString("app,batch,latency_ms,ips,tops\n")
	for _, name := range models.Names() {
		rows, err := BatchSweep(name, nil)
		if err != nil {
			return "", err
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "%s,%d,%.3f,%.1f,%.2f\n", r.App, r.Batch, r.LatencyMs, r.IPS, r.TOPS)
		}
	}
	return b.String(), nil
}

// csvRooflineCurves samples the roofline of Haswell, K80, TPU and TPU' at
// 57 operational intensities, 2^0 to 2^14 ops/byte in quarter-octave steps:
// the lines the rooflines block's points sit under.
func csvRooflineCurves() (string, error) {
	var b strings.Builder
	b.WriteString("platform,ops_per_byte,tops\n")
	for _, k := range []platform.Kind{platform.CPU, platform.GPU, platform.TPU, platform.TPUPrime} {
		die := platform.MustSpecs(k).Die
		for e := 0.0; e <= 14; e += 0.25 {
			oi := math.Pow(2, e)
			fmt.Fprintf(&b, "%s,%.2f,%.4f\n", k, oi, die.RooflineTOPS(oi))
		}
	}
	return b.String(), nil
}
