package datacenter_test

import (
	"strings"
	"testing"

	"tpusim/internal/datacenter"
	"tpusim/internal/experiments"
	"tpusim/internal/models"
	"tpusim/internal/platform"
)

// tpuPerf simulates the TPU's per-die throughput for every app.
func tpuPerf(t *testing.T) map[string]float64 {
	t.Helper()
	ips := map[string]float64{}
	for _, name := range models.Names() {
		p, err := experiments.SimulateTPU(name)
		if err != nil {
			t.Fatal(err)
		}
		ips[name] = p.IPS
	}
	return ips
}

func TestUniformScaleDemand(t *testing.T) {
	d := datacenter.UniformScaleDemand(1e6)
	var sum float64
	for _, v := range d {
		sum += v
	}
	if sum < 0.999e6 || sum > 1.001e6 {
		t.Errorf("demand sums to %v, want 1e6", sum)
	}
	if d["MLP0"] < d["CNN0"] {
		t.Error("MLP0 (57.9% share) should dominate CNN0 (2.5%)")
	}
}

// TestFleetOrdering: for the same demand, the TPU fleet is far smaller and
// lower power than the CPU fleet — the cost-performance mandate that
// justified building an ASIC.
func TestFleetOrdering(t *testing.T) {
	ps, err := datacenter.Compare(datacenter.UniformScaleDemand(5e6), tpuPerf(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 3 {
		t.Fatalf("%d provisions", len(ps))
	}
	cpu, gpu, tpu := ps[0], ps[1], ps[2]
	if cpu.Platform != platform.CPU || tpu.Platform != platform.TPU {
		t.Fatal("platform order wrong")
	}
	// The TPU fleet must be at least 10x smaller than the CPU fleet in
	// provisioned power — the "10X over GPUs" goal implies much more over
	// CPUs.
	if tpu.TDPMegawatts*10 > cpu.TDPMegawatts {
		t.Errorf("TPU %0.2f MW vs CPU %0.2f MW: less than 10x better", tpu.TDPMegawatts, cpu.TDPMegawatts)
	}
	if tpu.Servers >= gpu.Servers {
		t.Errorf("TPU needs %v servers, GPU %v — TPU should need fewer", tpu.Servers, gpu.Servers)
	}
	if cpu.BusyMegawatts <= 0 || tpu.BusyMegawatts <= 0 {
		t.Error("zero power computed")
	}
}

// TestVoiceSearchScenario: the origin-story shape — adding a large new
// MLP-style demand multiplies the CPU fleet but barely registers for TPUs.
func TestVoiceSearchScenario(t *testing.T) {
	ips := tpuPerf(t)
	base := datacenter.Demand{"MLP0": 1e6}
	surge := datacenter.Demand{"MLP0": 3e6} // voice search triples MLP demand
	cpuBase, err := datacenter.ProvisionFor(platform.CPU, base, ips)
	if err != nil {
		t.Fatal(err)
	}
	cpuSurge, _ := datacenter.ProvisionFor(platform.CPU, surge, ips)
	tpuSurge, _ := datacenter.ProvisionFor(platform.TPU, surge, ips)
	if cpuSurge.Servers < 2.5*cpuBase.Servers {
		t.Errorf("CPU fleet grew %vx, want ~3x", cpuSurge.Servers/cpuBase.Servers)
	}
	if tpuSurge.Servers > cpuSurge.Servers/20 {
		t.Errorf("TPU surge fleet %v vs CPU %v: should be tiny", tpuSurge.Servers, cpuSurge.Servers)
	}
}

func TestProvisionErrors(t *testing.T) {
	if _, err := datacenter.ProvisionFor(platform.TPUPrime, datacenter.Demand{"MLP0": 1}, nil); err == nil {
		t.Error("unsupported platform accepted")
	}
	if _, err := datacenter.ProvisionFor(platform.TPU, datacenter.Demand{"MLP0": 1}, map[string]float64{"MLP1": 1e5}); err == nil {
		t.Error("TPU demand without TPU throughput accepted")
	}
}

func TestRender(t *testing.T) {
	ps, err := datacenter.Compare(datacenter.UniformScaleDemand(1e6), tpuPerf(t))
	if err != nil {
		t.Fatal(err)
	}
	s := datacenter.Render(ps)
	for _, want := range []string{"Haswell", "K80", "TPU", "MW"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q", want)
		}
	}
}
