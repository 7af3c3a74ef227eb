package experiments

import (
	"strings"

	"tpusim/internal/datacenter"
	"tpusim/internal/models"
	"tpusim/internal/platform"
)

// A Section is one block of tpubench's report: a table or figure of the
// paper, or an extension study, rendered as aligned text.
type Section struct {
	ID, Title string
	Render    func() (string, error)
}

// Sections is tpubench's report in print order. tpubench prints each under
// an "== ID: Title ==" line; testdata/golden pins each one's text.
var Sections = []Section{
	section("t1", "Table 1: six NN applications", pure(Table1), renderTable1),
	section("t2", "Table 2: benchmarked servers", pure(Table2), renderTable2),
	section("t3", "Table 3: TPU performance-counter breakdown", Table3, RenderTable3),
	section("t4", "Table 4: 99th-percentile response time vs batch (MLP0)", Table4, RenderTable4),
	section("t5", "Table 5: host interaction time", Table5, renderTable5),
	section("t6", "Table 6: relative performance per die", Table6, renderTable6),
	section("t7", "Table 7: performance model vs simulator", Table7, renderTable7),
	section("t8", "Table 8: Unified Buffer usage", Table8, renderTable8),
	section("f5", "Figure 5: TPU roofline", RooflineTPU, renderRoofline),
	section("f6", "Figure 6: Haswell roofline", rooflineOf(platform.CPU), renderRoofline),
	section("f7", "Figure 7: K80 roofline", rooflineOf(platform.GPU), renderRoofline),
	section("f8", "Figure 8: combined rooflines", Figure8, renderRooflines),
	section("f9", "Figure 9: relative performance/Watt (TDP)", Figure9, renderFigure9),
	{"f10", "Figure 10: Watts/die vs utilization (CNN0; LSTM1 below)", figure10BothAnchors},
	section("f11", "Figure 11: TPU design sensitivity 0.25x-4x", Figure11, renderFigure11),
	{"s8", "Section 8: fallacies, pitfalls, and the sparsity extension", renderSection8},
	section("ab1", "Ablation: weight FIFO depth", FIFODepthAblation, renderAblations("cycles by FIFO depth", "cycles")),
	section("ab2", "Ablation: operand precision (8/16-bit)", PrecisionAblation, renderAblations("cycles by precision mode", "cycles")),
	section("ab3", "Ablation: Unified Buffer allocator", AllocatorAblation, renderAblations("UB peak bytes by allocator", "UB bytes")),
	section("rw", "Section 9: related-work comparison (published data points)", pure(RelatedWork), renderRelatedWork),
	section("sla", "Extension: best 7 ms operating point, all apps and platforms", SLAStudy, renderSLA),
	{"bs", "Extension: TPU throughput/latency vs batch size", batchSweepMLP0CNN0},
	section("quant", "Extension: int8 quantization quality vs float32", QuantizationStudy, renderQuantization),
	section("energy", "Extension: energy per inference", EnergyPerInference, renderEnergy),
	{"dc", "Extension: datacenter provisioning (the 'voice search' origin story)", provisioning},
}

// SectionIDs returns the IDs of Sections in order, comma-separated.
func SectionIDs() string {
	ids := make([]string, len(Sections))
	for i, s := range Sections {
		ids[i] = s.ID
	}
	return strings.Join(ids, ", ")
}

// section builds a Section from a generator and the renderer of its result.
func section[T any](id, title string, gen func() (T, error), render func(T) string) Section {
	return Section{id, title, func() (string, error) {
		v, err := gen()
		if err != nil {
			return "", err
		}
		return render(v), nil
	}}
}

// pure lifts a generator that cannot fail.
func pure[T any](gen func() T) func() (T, error) {
	return func() (T, error) { return gen(), nil }
}

// provisioning sizes the fleet of each platform that serves 10M inferences/s
// at the datacenter mix, the TPU at its simulated per-die throughput.
func provisioning() (string, error) {
	tpuIPS := map[string]float64{}
	for _, name := range models.Names() {
		p, err := SimulateTPU(name)
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
}
