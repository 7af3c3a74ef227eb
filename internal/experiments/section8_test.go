package experiments

import (
	"strings"
	"testing"

	"tpusim/internal/models"
)

func TestBoostModeFallacy(t *testing.T) {
	r := BoostMode()
	// "Boost mode increased the clock rate by a factor of up to 1.6 ...
	// increased performance by 1.4X, but it also raised power by 1.3X.
	// The net gain in performance/Watt is 1.1X."
	if r.ClockRatio < 1.5 || r.ClockRatio > 1.6 {
		t.Errorf("clock ratio = %.2f, want ~1.56", r.ClockRatio)
	}
	if r.PerfGain != 1.4 {
		t.Errorf("perf gain = %.2f, paper measured 1.4", r.PerfGain)
	}
	if r.PerfPerWattGain < 1.0 || r.PerfPerWattGain > 1.2 {
		t.Errorf("perf/W gain = %.2f, paper says 1.1 (minor)", r.PerfPerWattGain)
	}
}

func TestCPU8BitFallacy(t *testing.T) {
	r, err := CPU8Bit()
	if err != nil {
		t.Fatal(err)
	}
	if r.SpeedupApplied != 3.5 {
		t.Errorf("speedup = %v", r.SpeedupApplied)
	}
	// Even with the hypothetical 3.5x CPU, the TPU retains an
	// order-of-magnitude perf/W lead (paper band 12-24).
	if r.AfterGM < 8 {
		t.Errorf("after GM = %.1f, should stay >= ~10x", r.AfterGM)
	}
	if r.AfterGM >= r.BeforeGM {
		t.Error("8-bit CPU should shrink the gap")
	}
}

func TestIPSFallacy(t *testing.T) {
	r, err := IPSFallacy()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "TPU IPS vary by 75X" (MLP1 360,000 vs CNN1 4,700).
	if r.Ratio < 30 {
		t.Errorf("IPS spread = %.0fx, paper says 75x — should be huge", r.Ratio)
	}
	if r.MaxApp != "MLP1" {
		t.Errorf("fastest IPS app = %s, paper says MLP1", r.MaxApp)
	}
	if r.MinApp != "CNN1" && r.MinApp != "CNN0" {
		t.Errorf("slowest IPS app = %s, paper says CNN1", r.MinApp)
	}
}

func TestZeroSkipStudy(t *testing.T) {
	rows, wm, err := ZeroSkipStudy()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.App] = r.Speedup
	}
	// Memory-bound apps gain almost nothing; compute-bound CNN0
	// approaches 1/(1-0.44) = 1.79.
	if byName["MLP0"] > 1.1 {
		t.Errorf("MLP0 zero-skip speedup = %.2f, should be ~1 (memory bound)", byName["MLP0"])
	}
	if byName["CNN0"] < 1.3 {
		t.Errorf("CNN0 zero-skip speedup = %.2f, should approach Cnvlutin's 1.4+", byName["CNN0"])
	}
	// The weighted mean stays modest: the datacenter mix is MLP/LSTM heavy.
	if wm > 1.3 {
		t.Errorf("weighted-mean zero-skip speedup = %.2f, should be modest", wm)
	}
	for _, r := range rows {
		if r.Speedup < 1 {
			t.Errorf("%s: zero skipping made things slower (%.2f)", r.App, r.Speedup)
		}
	}
}

func TestFIFODepthAblation(t *testing.T) {
	rows, err := FIFODepthAblation()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]AblationRow{}
	for _, r := range rows {
		byKey[r.App+"/"+r.Config] = r
	}
	checkProductionRow(t, byKey, "fifo=4")
	for _, name := range []string{"MLP0", "LSTM0"} {
		// A single-tile FIFO must not be faster; depth 8 must not help
		// much beyond 4 (the design's point).
		if r := byKey[name+"/fifo=1"]; r.Relative > 1.0001 {
			t.Errorf("%s fifo=1 faster than production (%v)", name, r.Relative)
		}
		if r := byKey[name+"/fifo=8"]; r.Relative > 1.05 {
			t.Errorf("%s fifo=8 gains %.2fx; four tiles should suffice", name, r.Relative)
		}
	}
}

func TestPrecisionAblation(t *testing.T) {
	rows, err := PrecisionAblation()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]AblationRow{}
	for _, r := range rows {
		byKey[r.App+"/"+r.Config] = r
	}
	checkProductionRow(t, byKey, "int8")
	// CNN0 is compute bound: 16-bit operands halve throughput, 16-bit
	// everything quarters it.
	w16 := byKey["CNN0/w16"].Relative
	if w16 > 0.65 {
		t.Errorf("CNN0 w16 relative = %.2f, should be ~0.5 (half speed)", w16)
	}
	both := byKey["CNN0/w16a16"].Relative
	if both > 0.4 {
		t.Errorf("CNN0 w16a16 relative = %.2f, should be ~0.25 (quarter speed)", both)
	}
	// MLP0 is memory bound: 16-bit ACTIVATIONS barely matter (weight
	// traffic unchanged), but 16-bit WEIGHTS halve it (double traffic).
	if r := byKey["MLP0/a16"].Relative; r < 0.85 {
		t.Errorf("MLP0 a16 relative = %.2f, activation width should not matter when memory bound", r)
	}
	if r := byKey["MLP0/w16"].Relative; r > 0.65 {
		t.Errorf("MLP0 w16 relative = %.2f, doubled weight traffic should halve memory-bound throughput", r)
	}
}

// checkProductionRow checks that every app's row for the production
// configuration, config, is the base of its ablation and simulated what
// SimulateTPU simulates on the production device (tpu.DefaultConfig).
func checkProductionRow(t *testing.T, byKey map[string]AblationRow, config string) {
	t.Helper()
	for _, name := range models.Names() {
		p, err := SimulateTPU(name)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := byKey[name+"/"+config]
		if !ok {
			t.Errorf("%s: no %s row", name, config)
			continue
		}
		if r.Cycles != p.Counters.Cycles || r.Relative != 1.0 {
			t.Errorf("%s %s: %d cycles at %vx, want the production device's %d at 1x",
				name, config, r.Cycles, r.Relative, p.Counters.Cycles)
		}
	}
}

func TestAllocatorAblation(t *testing.T) {
	rows, err := AllocatorAblation()
	if err != nil {
		t.Fatal(err)
	}
	var cnn1Naive *AblationRow
	for i := range rows {
		if rows[i].App == "CNN1" && rows[i].Config == "naive" {
			cnn1Naive = &rows[i]
		}
	}
	if cnn1Naive == nil || cnn1Naive.Cycles >= 0 {
		t.Error("CNN1 should exhaust the naive allocator")
	}
	if s := renderAblations("alloc", "UB bytes")(rows); !strings.Contains(s, "exhausted") {
		t.Error("render should show exhaustion")
	}
}
