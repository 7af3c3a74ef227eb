package baseline

import (
	"math"
	"testing"

	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/platform"
)

func TestCPUTable4Anchors(t *testing.T) {
	cpu := CPU()
	b, err := models.ByName("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	// Table 4: CPU at batch 16 delivers 5,482 IPS; at batch 64, 13,194.
	ips16, err := cpu.IPS(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ips16 < 4000 || ips16 > 7000 {
		t.Errorf("CPU MLP0 @16 = %.0f IPS, Table 4 says 5,482", ips16)
	}
	ips64, err := cpu.IPS(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ips64 < 10000 || ips64 > 20000 {
		t.Errorf("CPU MLP0 @64 = %.0f IPS, Table 4 says 13,194", ips64)
	}
	if ips64 <= ips16 {
		t.Error("larger batches must increase CPU throughput")
	}
}

func TestGPUTable4Anchors(t *testing.T) {
	gpu := GPU()
	b, _ := models.ByName("MLP0")
	ips16, err := gpu.IPS(b, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ips16 < 10000 || ips16 > 17000 {
		t.Errorf("GPU MLP0 @16 = %.0f IPS, Table 4 says 13,461", ips16)
	}
	ips64, err := gpu.IPS(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if ips64 < 28000 || ips64 > 45000 {
		t.Errorf("GPU MLP0 @64 = %.0f IPS, Table 4 says 36,465", ips64)
	}
}

// TestGPUBarelyBeatsCPU: "the K80 is only a little faster at inference
// than Haswell" — geometric mean about 1.1x (Table 6).
func TestGPUBarelyBeatsCPU(t *testing.T) {
	cpu, gpu := CPU(), GPU()
	logSum := 0.0
	for _, b := range models.All() {
		c, err := cpu.SLAIPS(b)
		if err != nil {
			t.Fatal(err)
		}
		g, err := gpu.SLAIPS(b)
		if err != nil {
			t.Fatal(err)
		}
		logSum += math.Log(g / c)
	}
	gm := math.Exp(logSum / 6)
	if gm < 0.7 || gm > 1.7 {
		t.Errorf("GPU/CPU geometric mean = %.2f, paper says 1.1", gm)
	}
}

// TestTable6GPURow: per-app GPU/CPU ratios should land near the published
// 2.5, 0.3, 0.4, 1.2, 1.6, 2.7.
func TestTable6GPURow(t *testing.T) {
	want := map[string]float64{
		"MLP0": 2.5, "MLP1": 0.3, "LSTM0": 0.4, "LSTM1": 1.2, "CNN0": 1.6, "CNN1": 2.7,
	}
	cpu, gpu := CPU(), GPU()
	for _, b := range models.All() {
		c, _ := cpu.SLAIPS(b)
		g, _ := gpu.SLAIPS(b)
		ratio := g / c
		if ratio < want[b.Model.Name]*0.6 || ratio > want[b.Model.Name]*1.7 {
			t.Errorf("%s: GPU/CPU = %.2f, paper says %.1f", b.Model.Name, ratio, want[b.Model.Name])
		}
	}
}

// TestMLP1FasterOnCPU: Figure 6's observation — MLP1 (and LSTM0) run
// faster on Haswell than on the K80, because MLP1's FP32 weights fit the
// CPU's LLC.
func TestMLP1FasterOnCPU(t *testing.T) {
	cpu, gpu := CPU(), GPU()
	for _, name := range []string{"MLP1", "LSTM0"} {
		b, _ := models.ByName(name)
		c, _ := cpu.SLAIPS(b)
		g, _ := gpu.SLAIPS(b)
		if g >= c {
			t.Errorf("%s: GPU %.0f IPS >= CPU %.0f IPS; paper says CPU wins", name, g, c)
		}
	}
}

func TestCacheFit(t *testing.T) {
	cpu := CPU()
	mlp1, _ := models.ByName("MLP1")
	if !cpu.weightsFitOnChip(mlp1) {
		t.Error("MLP1's 20 MB of FP32 weights should fit Haswell's 51 MiB LLC")
	}
	mlp0, _ := models.ByName("MLP0")
	if cpu.weightsFitOnChip(mlp0) {
		t.Error("MLP0's 80 MB of FP32 weights should not fit the LLC")
	}
	gpu := GPU()
	if gpu.weightsFitOnChip(mlp1) {
		t.Error("nothing fits the K80's 8 MiB on-chip memory")
	}
}

func TestRooflineBatchDependence(t *testing.T) {
	cpu := CPU()
	b, _ := models.ByName("MLP0")
	// For a memory-bound MLP, larger batches raise the roofline linearly
	// until the compute peak.
	lo := cpu.RooflineTOPS(b, 8)
	hi := cpu.RooflineTOPS(b, 16)
	if math.Abs(hi/lo-2) > 0.01 {
		t.Errorf("bandwidth-bound roofline should double with batch: %v -> %v", lo, hi)
	}
	capped := cpu.RooflineTOPS(b, 10000)
	if capped != cpu.Platform.Die.PeakTOPS() {
		t.Errorf("huge batch should hit peak, got %v", capped)
	}
}

func TestErrors(t *testing.T) {
	cpu := CPU()
	fake := models.Benchmark{Model: &nn.Model{Name: "unknown", Batch: 1, TimeSteps: 1,
		Layers: []nn.Layer{{Kind: nn.FC, In: 4, Out: 4}}}}
	if _, err := cpu.AchievedTOPS(fake, 8); err == nil {
		t.Error("uncalibrated app accepted")
	}
	if _, err := cpu.SLAIPS(fake); err == nil {
		t.Error("uncalibrated app accepted for SLAIPS")
	}
	b, _ := models.ByName("MLP0")
	if _, err := cpu.BatchSeconds(b, 0); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestPlatformBinding(t *testing.T) {
	if CPU().Platform.Kind != platform.CPU {
		t.Error("CPU model bound to wrong platform")
	}
	if GPU().Platform.Kind != platform.GPU {
		t.Error("GPU model bound to wrong platform")
	}
}

func mustApp(t *testing.T, name string) models.Benchmark {
	t.Helper()
	b, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
