package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"tpusim/internal/models"
	"tpusim/internal/platform"
	"tpusim/internal/power"
	"tpusim/internal/tpu"
)

func TestTable1MatchesPublished(t *testing.T) {
	rows := Table1()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Name != "MLP0" || rows[0].Total != 5 || rows[0].Batch != 200 {
		t.Errorf("MLP0 row = %+v", rows[0])
	}
	// The deployment mix: MLPs 61%, LSTMs 29%, CNNs 5%.
	if share := rows[0].DeployShare + rows[1].DeployShare; math.Abs(share-61) > 0.5 {
		t.Errorf("MLP share = %v", share)
	}
	if !strings.Contains(renderTable1(rows), "MLP0") {
		t.Error("render missing MLP0")
	}
}

func TestTable2MatchesPublished(t *testing.T) {
	rows := Table2()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[2].TOPS8 != 92 || rows[2].GBs != 34 {
		t.Errorf("TPU row = %+v", rows[2])
	}
	if !strings.Contains(renderTable2(rows), "Haswell") {
		t.Error("render missing Haswell")
	}
}

// TestTable3Shape asserts the paper's Table 3 findings hold in the
// simulator: MLPs and LSTMs are weight-stall dominated (memory bound),
// CNN0 is compute bound with nearly all-useful MACs, CNN1 loses about half
// its MACs to shallow depths and stalls on its FC layers' weights.
func TestTable3Shape(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, name := range []string{"MLP0", "MLP1", "LSTM0", "LSTM1"} {
		r := byName[name]
		if r.WeightStall < 0.40 {
			t.Errorf("%s weight stall = %.0f%%, should dominate (memory bound)", name, r.WeightStall*100)
		}
		if r.ArrayActive > 0.20 {
			t.Errorf("%s array active = %.0f%%, should be small", name, r.ArrayActive*100)
		}
	}
	cnn0 := byName["CNN0"]
	if cnn0.ArrayActive < 0.6 {
		t.Errorf("CNN0 active = %.0f%%, should be compute bound", cnn0.ArrayActive*100)
	}
	if cnn0.UnusedMACs > 0.05 {
		t.Errorf("CNN0 unused MACs = %.0f%%, should be ~0", cnn0.UnusedMACs*100)
	}
	if cnn0.WeightStall > 0.10 {
		t.Errorf("CNN0 weight stall = %.0f%%, paper says 0", cnn0.WeightStall*100)
	}
	cnn1 := byName["CNN1"]
	usefulFrac := cnn1.UsefulMACs / cnn1.ArrayActive
	if usefulFrac < 0.35 || usefulFrac > 0.70 {
		t.Errorf("CNN1 useful/active = %.0f%%, paper says ~half", usefulFrac*100)
	}
	if cnn1.WeightStall < 0.10 {
		t.Errorf("CNN1 weight stall = %.0f%%, its FC layers should stall on weights", cnn1.WeightStall*100)
	}
	// TOPS ordering: CNN0 fastest, LSTMs slowest — the Figure 5 picture.
	if !(cnn0.TOPS > byName["MLP0"].TOPS && byName["MLP0"].TOPS > byName["LSTM0"].TOPS) {
		t.Errorf("TOPS ordering broken: CNN0 %.1f, MLP0 %.1f, LSTM0 %.1f",
			cnn0.TOPS, byName["MLP0"].TOPS, byName["LSTM0"].TOPS)
	}
}

// TestTable4Shape: the latency study's core findings.
func TestTable4Shape(t *testing.T) {
	rows, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	get := func(p string, b int) Table4Row {
		for _, r := range rows {
			if r.Platform == p && r.Batch == b {
				return r
			}
		}
		t.Fatalf("missing row %s/%d", p, b)
		return Table4Row{}
	}
	// CPU and GPU operate at a small fraction of peak under the SLA
	// (paper: 42% and 37%); the TPU runs near its max (80%).
	cpu16 := get("CPU", 16)
	if cpu16.PctMaxIPS > 60 {
		t.Errorf("CPU SLA point at %.0f%% of max; paper says 42%%", cpu16.PctMaxIPS)
	}
	tpu200 := get("TPU", 200)
	if tpu200.PctMaxIPS < 60 {
		t.Errorf("TPU SLA point at %.0f%% of max; paper says 80%%", tpu200.PctMaxIPS)
	}
	if tpu200.P99Ms > 7.01 {
		t.Errorf("TPU batch-200 p99 = %.1f ms, must meet 7 ms", tpu200.P99Ms)
	}
	// CPU at batch 64 violates the SLA (paper: 21.3 ms).
	if get("CPU", 64).P99Ms < 7 {
		t.Errorf("CPU batch-64 p99 = %.1f ms; paper says it exceeds 7 ms", get("CPU", 64).P99Ms)
	}
	// TPU throughput dwarfs both (paper: 225,000 vs 5,482 and 13,461).
	if tpu200.IPS < 10*get("GPU", 16).IPS {
		t.Errorf("TPU %.0f IPS not >> GPU %.0f IPS", tpu200.IPS, get("GPU", 16).IPS)
	}
}

func TestTable5(t *testing.T) {
	rows, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["MLP1"].HostFrac != 0.76 || byName["LSTM0"].HostFrac != 0.11 {
		t.Errorf("host fractions wrong: %+v", byName)
	}
	for _, r := range rows {
		if r.PCIeFrac < 0 || r.PCIeFrac > r.HostFrac+0.25 {
			t.Errorf("%s: PCIe fraction %.2f implausible vs host %.2f", r.Name, r.PCIeFrac, r.HostFrac)
		}
	}
}

// TestTable6Headline asserts the paper's headline: "the TPU is about
// 15X-30X faster than its contemporary GPU or CPU" on the means, and the
// K80 "is just a little faster than a Haswell CPU".
func TestTable6Headline(t *testing.T) {
	r, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	if r.TPUGM < 10 || r.TPUGM > 35 {
		t.Errorf("TPU GM = %.1f, paper says 14.5 (headline 15X-30X)", r.TPUGM)
	}
	if r.TPUWM < 20 || r.TPUWM > 50 {
		t.Errorf("TPU WM = %.1f, paper says 29.2", r.TPUWM)
	}
	if r.GPUGM < 0.7 || r.GPUGM > 1.7 {
		t.Errorf("GPU GM = %.1f, paper says 1.1", r.GPUGM)
	}
	if r.RatioWM < 8 {
		t.Errorf("TPU/GPU WM = %.1f, paper says 15.3", r.RatioWM)
	}
	// Per-app: MLPs and CNNs do very well on the TPU.
	for _, row := range r.Rows {
		if row.Name == "MLP0" && row.TPU < 20 {
			t.Errorf("MLP0 TPU/CPU = %.1f, paper says 41", row.TPU)
		}
		if row.Name == "CNN1" && row.TPU < 40 {
			t.Errorf("CNN1 TPU/CPU = %.1f, paper says 71", row.TPU)
		}
	}
}

func TestTable7WithinTenPercent(t *testing.T) {
	rows, err := Table7()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DiffPct > 10 {
			t.Errorf("%s: model differs from simulator by %.1f%%", r.Name, r.DiffPct)
		}
	}
}

// TestTable8Shape: the improved allocator must fit every app comfortably,
// and CNN1 must be the largest consumer (paper: 13.9 MiB of 24).
func TestTable8Shape(t *testing.T) {
	rows, err := Table8()
	if err != nil {
		t.Fatal(err)
	}
	var maxApp string
	var maxMiB float64
	for _, r := range rows {
		if r.ReuseMiB > 24 {
			t.Errorf("%s exceeds the Unified Buffer: %.1f MiB", r.Name, r.ReuseMiB)
		}
		if r.ReuseMiB > maxMiB {
			maxMiB, maxApp = r.ReuseMiB, r.Name
		}
		// Naive always >= reuse when it fits at all.
		if r.NaiveMiB > 0 && r.NaiveMiB < r.ReuseMiB {
			t.Errorf("%s: naive %.1f < reuse %.1f", r.Name, r.NaiveMiB, r.ReuseMiB)
		}
	}
	if maxApp != "CNN1" {
		t.Errorf("largest UB consumer is %s, paper says CNN1", maxApp)
	}
}

// TestRooflines: ridge points and the Figure 8 claim that "All TPU stars
// are at or above the other 2 rooflines".
func TestRooflines(t *testing.T) {
	rls, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rls) != 3 {
		t.Fatalf("%d rooflines", len(rls))
	}
	tpuR, cpuR, gpuR := rls[0], rls[1], rls[2]
	if math.Abs(tpuR.RidgeOI-1350) > 25 {
		t.Errorf("TPU ridge = %.0f", tpuR.RidgeOI)
	}
	if math.Abs(cpuR.RidgeOI-13) > 1 {
		t.Errorf("CPU ridge = %.0f", cpuR.RidgeOI)
	}
	if math.Abs(gpuR.RidgeOI-9) > 1 {
		t.Errorf("GPU ridge = %.0f", gpuR.RidgeOI)
	}
	for i, p := range tpuR.Points {
		if p.TOPS > p.Ceiling*1.001 {
			t.Errorf("%s exceeds its roofline: %.1f > %.1f", p.App, p.TOPS, p.Ceiling)
		}
		// Every TPU point beats both other platforms' achieved points.
		if p.TOPS <= cpuR.Points[i].TOPS || p.TOPS <= gpuR.Points[i].TOPS {
			t.Errorf("%s: TPU %.1f TOPS not above CPU %.1f / GPU %.1f",
				p.App, p.TOPS, cpuR.Points[i].TOPS, gpuR.Points[i].TOPS)
		}
	}
	if _, err := RooflineBaseline(platform.TPU); err == nil {
		t.Error("baseline roofline for TPU should be rejected")
	}
}

// TestFigure9Bands: the perf/Watt conclusions stay in the paper's bands
// (allowing our somewhat faster LSTM1/CNN1 TPU results).
func TestFigure9Bands(t *testing.T) {
	bars, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string, total bool) Figure9Bar {
		for _, b := range bars {
			if b.Label == label && b.Total == total {
				return b
			}
		}
		t.Fatalf("missing bar %s", label)
		return Figure9Bar{}
	}
	if b := get("GPU/CPU", true); b.GM < 0.8 || b.GM > 2.5 {
		t.Errorf("GPU/CPU total GM = %.1f, paper 1.2-2.1", b.GM)
	}
	if b := get("TPU/CPU", true); b.GM < 14 || b.WM > 60 {
		t.Errorf("TPU/CPU total = %.1f-%.1f, paper 17-34", b.GM, b.WM)
	}
	if b := get("TPU/CPU", false); b.GM < 30 || b.WM > 140 {
		t.Errorf("TPU/CPU incremental = %.1f-%.1f, paper 41-83", b.GM, b.WM)
	}
	// TPU' must beat TPU in every accounting.
	for _, total := range []bool{true, false} {
		if get("TPU'/CPU", total).GM <= get("TPU/CPU", total).GM {
			t.Errorf("TPU' not better than TPU (total=%v)", total)
		}
	}
	if s := renderFigure9(bars); !strings.Contains(s, "incremental") {
		t.Error("render missing incremental rows")
	}
}

// TestFigure10Shape: monotone power curves with the TPU flattest (worst
// proportionality) and lowest under load.
func TestFigure10Shape(t *testing.T) {
	rows, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("%d buckets, want 11", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].TPUTotal < rows[i-1].TPUTotal || rows[i].CPUTotal < rows[i-1].CPUTotal {
			t.Errorf("power not monotone at bucket %d", i)
		}
	}
	last := rows[10]
	if last.TPUTotal >= last.GPUTotal || last.TPUTotal >= last.CPUTotal {
		t.Errorf("TPU not lowest power at full load: %.0f vs GPU %.0f, CPU %.0f",
			last.TPUTotal, last.GPUTotal, last.CPUTotal)
	}
	// Energy proportionality: TPU's 10%-load power fraction is the worst.
	tpuFrac := rows[1].TPUIncrement / last.TPUIncrement
	gpuFrac := rows[1].GPUIncrement / last.GPUIncrement
	cpuFrac := rows[1].CPUTotal / last.CPUTotal
	if !(tpuFrac > gpuFrac && gpuFrac > cpuFrac) {
		t.Errorf("proportionality ordering broken: TPU %.2f, GPU %.2f, CPU %.2f",
			tpuFrac, gpuFrac, cpuFrac)
	}
}

// TestFigure11Shape: memory helps most; clock little; matrix never helps.
func TestFigure11Shape(t *testing.T) {
	rows, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	byKnob := map[string]map[float64]Figure11Row{}
	for _, r := range rows {
		k := r.Knob.String()
		if byKnob[k] == nil {
			byKnob[k] = map[float64]Figure11Row{}
		}
		byKnob[k][r.Scale] = r
	}
	if v := byKnob["memory"][4].WM; v < 2.5 {
		t.Errorf("memory 4x WM = %.2f, paper ~3", v)
	}
	if v := byKnob["clock"][4].WM; v > 1.5 {
		t.Errorf("clock 4x WM = %.2f, paper ~1", v)
	}
	for _, k := range []string{"matrix", "matrix+"} {
		if v := byKnob[k][2].WM; v >= 1.0 {
			t.Errorf("%s 2x WM = %.2f, paper says it degrades", k, v)
		}
	}
	if s := renderFigure11(rows); !strings.Contains(s, "memory") {
		t.Error("render missing knob names")
	}
}

// TestSimulateTPUCachesAndErrors: SimulateTPU memoizes each app's result,
// including under concurrent callers starting from an empty cache, and
// caches no error: every result equals a serial, uncached CompileAndRun.
func TestSimulateTPUCachesAndErrors(t *testing.T) {
	names := models.Names()
	want := make(map[string]TPUPerf, len(names))
	for _, name := range names {
		p, err := CompileAndRun(name)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = p
	}
	perfMu.Lock()
	clear(perfCache)
	perfMu.Unlock()

	const callers = 8
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- func() error {
				all, err := SimulateAll()
				if err != nil {
					return err
				}
				for i, name := range names {
					if all[i] != want[name] {
						return fmt.Errorf("SimulateAll %s = %+v, want %+v", name, all[i], want[name])
					}
				}
				if _, err := SimulateTPU("nope"); err == nil {
					return errors.New("unknown app accepted")
				}
				for _, name := range names {
					p, err := SimulateTPU(name)
					if err != nil {
						return err
					}
					if p != want[name] {
						return fmt.Errorf("SimulateTPU %s = %+v, want %+v", name, p, want[name])
					}
				}
				return nil
			}()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	perfMu.Lock()
	_, cached := perfCache["nope"]
	perfMu.Unlock()
	if cached {
		t.Error("an unknown app's error was cached")
	}
	a, err := SimulateTPU("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	if raw := float64(a.App.Model.Batch) / a.Counters.Seconds(tpu.DefaultConfig().ClockMHz); a.IPS >= raw {
		t.Error("host overhead should reduce IPS")
	}
}

func TestTPUPrimeSpeedupHostAdjusted(t *testing.T) {
	// Host overhead damps TPU' gains: MLP1 (76% host time) gains less
	// than LSTM0 (11%).
	mlp1, err := TPUPrimeSpeedup("MLP1")
	if err != nil {
		t.Fatal(err)
	}
	lstm0, err := TPUPrimeSpeedup("LSTM0")
	if err != nil {
		t.Fatal(err)
	}
	if mlp1 >= lstm0 {
		t.Errorf("MLP1 speedup %.2f should be damped below LSTM0 %.2f by host overhead", mlp1, lstm0)
	}
	if _, err := TPUPrimeSpeedup("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestFigure10WithLSTM1Anchors(t *testing.T) {
	rows, err := Figure10With(power.AnchorsLSTM1())
	if err != nil {
		t.Fatal(err)
	}
	// LSTM1's anchors are even less proportional for the TPU (94% at 10%).
	frac := rows[1].TPUIncrement / rows[10].TPUIncrement
	if math.Abs(frac-0.94) > 0.01 {
		t.Errorf("TPU at 10%% = %.0f%% of busy, paper says 94%% for LSTM1", frac*100)
	}
	cnn0, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	cnnFrac := cnn0[1].TPUIncrement / cnn0[10].TPUIncrement
	if frac <= cnnFrac {
		t.Error("LSTM1 should be less proportional than CNN0 for the TPU")
	}
}
