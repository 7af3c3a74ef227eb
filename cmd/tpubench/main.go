// Command tpubench regenerates every table and figure of the paper's
// evaluation section from the simulator:
//
//	tpubench            # everything
//	tpubench -only t3   # one experiment (t1-t8, f5-f11)
//
// The first line names the matrix kernel rung the host runs (amx,
// avx512vnni, avx2 or swar): the kernel-bound numbers move with it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"tpusim/internal/datacenter"
	"tpusim/internal/experiments"
	"tpusim/internal/models"
	"tpusim/internal/platform"
	"tpusim/internal/power"
	"tpusim/internal/systolic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tpubench: ")
	only := flag.String("only", "", "run a single experiment: t1..t8, f5..f11, s8, rw, ab1..ab3, sla, bs, quant, energy, dc (default: all)")
	csv := flag.Bool("csv", false, "emit machine-readable CSV (rooflines, t3, t6, f10, f11, batch sweep, SLA) instead of the full text report")
	flag.Parse()

	if *csv {
		fmt.Printf("# kernel %s\n", systolic.Kernel())
		emitters := []struct {
			name string
			fn   func() (string, error)
		}{
			{"rooflines", experiments.CSVRooflines},
			{"table3", experiments.CSVTable3},
			{"table6", experiments.CSVTable6},
			{"figure10", experiments.CSVFigure10},
			{"figure11", experiments.CSVFigure11},
			{"batchsweep", experiments.CSVBatchSweep},
			{"sla", experiments.CSVSLA},
		}
		for _, e := range emitters {
			out, err := e.fn()
			if err != nil {
				log.Fatalf("%s: %v", e.name, err)
			}
			fmt.Printf("# %s\n%s\n", e.name, out)
		}
		return
	}

	type exp struct {
		id, title string
		run       func() (string, error)
	}
	exps := []exp{
		{"t1", "Table 1: six NN applications", func() (string, error) {
			return experiments.RenderTable1(experiments.Table1()), nil
		}},
		{"t2", "Table 2: benchmarked servers", func() (string, error) {
			return experiments.RenderTable2(experiments.Table2()), nil
		}},
		{"t3", "Table 3: TPU performance-counter breakdown", func() (string, error) {
			rows, err := experiments.Table3()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable3(rows), nil
		}},
		{"t4", "Table 4: 99th-percentile response time vs batch (MLP0)", func() (string, error) {
			rows, err := experiments.Table4()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable4(rows), nil
		}},
		{"t5", "Table 5: host interaction time", func() (string, error) {
			rows, err := experiments.Table5()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable5(rows), nil
		}},
		{"t6", "Table 6: relative performance per die", func() (string, error) {
			r, err := experiments.Table6()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable6(r), nil
		}},
		{"t7", "Table 7: performance model vs simulator", func() (string, error) {
			rows, err := experiments.Table7()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable7(rows), nil
		}},
		{"t8", "Table 8: Unified Buffer usage", func() (string, error) {
			rows, err := experiments.Table8()
			if err != nil {
				return "", err
			}
			return experiments.RenderTable8(rows), nil
		}},
		{"f5", "Figure 5: TPU roofline", func() (string, error) {
			r, err := experiments.RooflineTPU()
			if err != nil {
				return "", err
			}
			return experiments.RenderRoofline(r), nil
		}},
		{"f6", "Figure 6: Haswell roofline", func() (string, error) {
			r, err := experiments.RooflineBaseline(platform.CPU)
			if err != nil {
				return "", err
			}
			return experiments.RenderRoofline(r), nil
		}},
		{"f7", "Figure 7: K80 roofline", func() (string, error) {
			r, err := experiments.RooflineBaseline(platform.GPU)
			if err != nil {
				return "", err
			}
			return experiments.RenderRoofline(r), nil
		}},
		{"f8", "Figure 8: combined rooflines", func() (string, error) {
			rs, err := experiments.Figure8()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range rs {
				b.WriteString(experiments.RenderRoofline(r))
			}
			return b.String(), nil
		}},
		{"f9", "Figure 9: relative performance/Watt (TDP)", func() (string, error) {
			bars, err := experiments.Figure9()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure9(bars), nil
		}},
		{"f10", "Figure 10: Watts/die vs utilization (CNN0; LSTM1 below)", func() (string, error) {
			rows, err := experiments.Figure10()
			if err != nil {
				return "", err
			}
			out := "CNN0 anchors (56/66/88% at 10% load):\n" + experiments.RenderFigure10(rows)
			lrows, err := experiments.Figure10With(power.AnchorsLSTM1())
			if err != nil {
				return "", err
			}
			return out + "\nLSTM1 anchors (47/78/94% at 10% load):\n" + experiments.RenderFigure10(lrows), nil
		}},
		{"f11", "Figure 11: TPU design sensitivity 0.25x-4x", func() (string, error) {
			rows, err := experiments.Figure11()
			if err != nil {
				return "", err
			}
			return experiments.RenderFigure11(rows), nil
		}},
		{"s8", "Section 8: fallacies, pitfalls, and the sparsity extension", func() (string, error) {
			return experiments.RenderSection8()
		}},
		{"ab1", "Ablation: weight FIFO depth", func() (string, error) {
			rows, err := experiments.FIFODepthAblation()
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations("cycles by FIFO depth", rows, "cycles"), nil
		}},
		{"ab2", "Ablation: operand precision (8/16-bit)", func() (string, error) {
			rows, err := experiments.PrecisionAblation()
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations("cycles by precision mode", rows, "cycles"), nil
		}},
		{"ab3", "Ablation: Unified Buffer allocator", func() (string, error) {
			rows, err := experiments.AllocatorAblation()
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations("UB peak bytes by allocator", rows, "UB bytes"), nil
		}},
		{"rw", "Section 9: related-work comparison (published data points)", func() (string, error) {
			return experiments.RenderRelatedWork(experiments.RelatedWork()), nil
		}},
		{"sla", "Extension: best 7 ms operating point, all apps and platforms", func() (string, error) {
			rows, err := experiments.SLAStudy()
			if err != nil {
				return "", err
			}
			return experiments.RenderSLA(rows), nil
		}},
		{"bs", "Extension: TPU throughput/latency vs batch size", func() (string, error) {
			var b strings.Builder
			for _, name := range []string{"MLP0", "CNN0"} {
				rows, err := experiments.BatchSweep(name, nil)
				if err != nil {
					return "", err
				}
				b.WriteString(experiments.RenderBatchSweep(rows))
			}
			return b.String(), nil
		}},
		{"quant", "Extension: int8 quantization quality vs float32", func() (string, error) {
			rows, err := experiments.QuantizationStudy()
			if err != nil {
				return "", err
			}
			return experiments.RenderQuantization(rows), nil
		}},
		{"energy", "Extension: energy per inference", func() (string, error) {
			rows, err := experiments.EnergyPerInference()
			if err != nil {
				return "", err
			}
			return experiments.RenderEnergy(rows), nil
		}},
		{"dc", "Extension: datacenter provisioning (the 'voice search' origin story)", func() (string, error) {
			tpuIPS := map[string]float64{}
			for _, name := range models.Names() {
				p, err := experiments.SimulateTPU(name)
				if err != nil {
					return "", err
				}
				tpuIPS[name] = p.IPS
			}
			ps, err := datacenter.Compare(datacenter.UniformScaleDemand(10e6), tpuIPS)
			if err != nil {
				return "", err
			}
			return "fleet to serve 10M inferences/s at the datacenter mix:\n" + datacenter.Render(ps), nil
		}},
	}

	fmt.Printf("kernel: %s\n\n", systolic.Kernel())
	ran := 0
	for _, e := range exps {
		if *only != "" && e.id != *only {
			continue
		}
		out, err := e.run()
		if err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Printf("== %s: %s ==\n%s\n", e.id, e.title, out)
		ran++
	}
	if ran == 0 {
		log.Printf("unknown experiment %q", *only)
		os.Exit(2)
	}
}
