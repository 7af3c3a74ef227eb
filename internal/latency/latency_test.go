package latency

import (
	"errors"
	"testing"

	"tpusim/internal/baseline"
	"tpusim/internal/models"
	"tpusim/internal/stats"
)

// fixedService has service = base + n*per seconds.
func fixedService(base, per float64) ServiceModel {
	return ServiceFunc(func(n int) (float64, error) {
		return base + float64(n)*per, nil
	})
}

func TestSimulateErrors(t *testing.T) {
	sm := fixedService(0, 1e-3)
	if _, err := Simulate(sm, Config{Batch: 0, RatePerSecond: 10, Requests: 10}); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := Simulate(sm, Config{Batch: 1, RatePerSecond: 10, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := Simulate(sm, Config{Batch: 1, RatePerSecond: 0, Requests: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	bad := ServiceFunc(func(int) (float64, error) { return 0, nil })
	if _, err := Simulate(bad, Config{Batch: 1, RatePerSecond: 10, Requests: 10, Seed: 1}); err == nil {
		t.Error("zero service time accepted")
	}
}

func TestSimulateLightLoad(t *testing.T) {
	// At very light load every request rides alone: latency ~ service(1).
	sm := fixedService(0, 1e-3)
	r, err := Simulate(sm, Config{Batch: 16, RatePerSecond: 10, Requests: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanBatch > 1.2 {
		t.Errorf("light-load mean batch = %v, want ~1", r.MeanBatch)
	}
	run, err := OpenLoop(&Lane[At]{Cap: 16}, sm, 10, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p50, err := stats.Percentile(run.Latencies, 50); err != nil || p50 < 0.9e-3 || p50 > 2e-3 {
		t.Errorf("light-load p50 = %v (%v), want ~1ms", p50, err)
	}
}

func TestSimulateHeavyLoadBatches(t *testing.T) {
	// Near saturation the server assembles full batches and p99 inflates
	// well beyond one service time. Batching only pays when service has a
	// fixed component, so use one.
	sm := fixedService(2e-3, 0.05e-3)
	cap_, _ := Capacity(sm, 16)
	r, err := Simulate(sm, Config{Batch: 16, RatePerSecond: cap_ * 0.95, Requests: 20000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanBatch < 8 {
		t.Errorf("heavy-load mean batch = %v, want near 16", r.MeanBatch)
	}
	svc16, _ := sm.BatchSeconds(16)
	if r.P99 < svc16 {
		t.Errorf("p99 %v below one batch service %v", r.P99, svc16)
	}
}

func TestLatencyThroughputTradeoff(t *testing.T) {
	// The Table 4 phenomenon: larger batch sizes raise capacity but also
	// raise tail latency at comparable utilization.
	sm := fixedService(2e-3, 0.05e-3)
	cap16, _ := Capacity(sm, 16)
	cap64, _ := Capacity(sm, 64)
	if cap64 <= cap16 {
		t.Errorf("capacity must grow with batch: %v vs %v", cap16, cap64)
	}
	r16, err := Simulate(sm, Config{Batch: 16, RatePerSecond: cap16 * 0.9, Requests: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r64, err := Simulate(sm, Config{Batch: 64, RatePerSecond: cap64 * 0.9, Requests: 30000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r64.P99 <= r16.P99 {
		t.Errorf("p99 should grow with batch at matched utilization: %v vs %v", r16.P99, r64.P99)
	}
}

func TestMaxRateUnderSLA(t *testing.T) {
	sm := fixedService(1e-3, 0.1e-3)
	r, err := MaxRateUnderSLA(sm, 16, 7e-3, 20000, 6)
	if err != nil {
		t.Fatal(err)
	}
	if r.P99 > 7e-3 {
		t.Errorf("returned operating point violates SLA: p99 = %v", r.P99)
	}
	cap_, _ := Capacity(sm, 16)
	if r.Throughput <= 0 || r.Throughput > cap_ {
		t.Errorf("throughput %v outside (0, capacity %v]", r.Throughput, cap_)
	}
}

// TestMaxRatePricesOnce: the search prices the batch once up front, and a
// service model that fails on any later call fails the search instead of
// being read as a zero service time.
func TestMaxRatePricesOnce(t *testing.T) {
	errSecond := errors.New("second call fails")
	calls := 0
	sm := ServiceFunc(func(n int) (float64, error) {
		if calls++; calls == 2 {
			return 0, errSecond
		}
		return 1e-3 + 0.1e-3*float64(n), nil
	})
	if _, err := MaxRateUnderSLA(sm, 16, 7e-3, 1000, 6); !errors.Is(err, errSecond) {
		t.Errorf("err = %v, want the service model's error from its second call", err)
	}
}

func TestMaxRateImpossibleSLA(t *testing.T) {
	sm := fixedService(0.5, 0.1) // 600ms for one request
	if _, err := MaxRateUnderSLA(sm, 4, 7e-3, 1000, 1); err == nil {
		t.Error("impossible SLA accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	sm := fixedService(1e-3, 0.1e-3)
	cfg := Config{Batch: 8, RatePerSecond: 500, Requests: 5000, Seed: 11}
	a, err := Simulate(sm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Simulate(sm, cfg)
	if a != b {
		t.Error("simulation not deterministic")
	}
}

// TestTable4CPUShape: with the calibrated Haswell model, batch 16 must meet
// the 7 ms p99 limit and batch 64 must miss it — Table 4's core finding.
func TestTable4CPUShape(t *testing.T) {
	cpu := baseline.CPU()
	mlp0, err := models.ByName("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	sm := ServiceFunc(func(n int) (float64, error) { return cpu.BatchSeconds(mlp0, n) })

	r16, err := MaxRateUnderSLA(sm, 16, 7e-3, 20000, 9)
	if err != nil {
		t.Fatalf("CPU batch 16 cannot meet 7ms at all: %v", err)
	}
	if r16.Throughput < 2000 {
		t.Errorf("CPU batch-16 SLA throughput = %.0f, implausibly low", r16.Throughput)
	}
	// At batch 64 near saturation, p99 blows through 7 ms (paper: 21.3 ms).
	cap64, _ := Capacity(sm, 64)
	r64, err := Simulate(sm, Config{Batch: 64, RatePerSecond: cap64 * 0.9, Requests: 20000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r64.P99 < 7e-3 {
		t.Errorf("CPU batch-64 p99 = %.1f ms; Table 4 says it exceeds 7 ms", r64.P99*1e3)
	}
}

func TestSimulateMaxQueue(t *testing.T) {
	sm := fixedService(2e-3, 0.05e-3)
	cap_, _ := Capacity(sm, 16)
	r, err := Simulate(sm, Config{Batch: 16, RatePerSecond: cap_ * 0.95, Requests: 20000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Near saturation the queue must back up beyond one batch.
	if r.MaxQueue <= 1 {
		t.Errorf("max queue = %d near saturation, want backlog", r.MaxQueue)
	}
	// At very light load the queue never holds more than the request being
	// picked up.
	light, err := Simulate(sm, Config{Batch: 16, RatePerSecond: 5, Requests: 2000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if light.MaxQueue > 3 {
		t.Errorf("light-load max queue = %d, want ~1", light.MaxQueue)
	}
}
