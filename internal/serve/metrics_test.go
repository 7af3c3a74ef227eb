package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestMetricsCountersAndSnapshot(t *testing.T) {
	m := NewMetrics()
	mm := m.Model("MLP0")
	for i := 0; i < 10; i++ {
		mm.Submitted()
	}
	for i := 0; i < 6; i++ {
		mm.Completed(2e-3)
	}
	mm.Batch(6)
	mm.ShedQueue()
	mm.ShedQueue()
	mm.Expired()
	mm.Errored()
	mm.SetQueueDepth(3)

	snap := m.Snapshot()
	if len(snap.Models) != 1 {
		t.Fatalf("%d models", len(snap.Models))
	}
	s := snap.Models[0]
	if s.Submitted != 10 || s.Completed != 6 || s.ShedQueue != 2 || s.Expired != 1 || s.Errored != 1 {
		t.Errorf("counters wrong: %+v", s)
	}
	if s.InFlight != 0 {
		t.Errorf("in flight = %d, want 0 (10 = 6+2+1+1)", s.InFlight)
	}
	if s.QueueDepth != 3 || s.MaxQueueDepth != 3 {
		t.Errorf("queue depth %d/%d", s.QueueDepth, s.MaxQueueDepth)
	}
	if s.MeanBatch != 6 || s.Batches != 1 {
		t.Errorf("batch stats: %+v", s)
	}
	// All six latencies were 2 ms; the histogram quantiles must land in
	// the right bucket (geometric buckets are ~25% wide).
	if s.P50Ms < 1.5 || s.P50Ms > 2.5 || s.P99Ms < 1.5 || s.P99Ms > 2.5 {
		t.Errorf("p50/p99 = %.2f/%.2f ms, want ~2 ms", s.P50Ms, s.P99Ms)
	}
	if s.MaxMs < 1.99 || s.MaxMs > 2.01 {
		t.Errorf("max = %.3f ms", s.MaxMs)
	}
	if s.MeanMs < 1.99 || s.MeanMs > 2.01 {
		t.Errorf("mean = %.3f ms", s.MeanMs)
	}
}

func TestMetricsInFlight(t *testing.T) {
	m := NewMetrics()
	mm := m.Model("X")
	mm.Submitted()
	mm.Submitted()
	mm.Completed(1e-3)
	if got := mm.snapshot().InFlight; got != 1 {
		t.Errorf("in flight = %d, want 1", got)
	}
}

func TestMetricsQuantileSpread(t *testing.T) {
	m := NewMetrics()
	mm := m.Model("X")
	// 95 fast requests and 5 slow: p50 near 1 ms, p99 lands in the tail.
	for i := 0; i < 95; i++ {
		mm.Completed(1e-3)
	}
	for i := 0; i < 5; i++ {
		mm.Completed(50e-3)
	}
	s := mm.snapshot()
	if s.P50Ms > 2 {
		t.Errorf("p50 = %.2f ms, want ~1 ms", s.P50Ms)
	}
	if s.P99Ms < 5 {
		t.Errorf("p99 = %.2f ms, should reflect the tail", s.P99Ms)
	}
	if s.MaxMs < 49 || s.MaxMs > 51 {
		t.Errorf("max = %.2f ms", s.MaxMs)
	}
}

func TestMetricsJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	mm := m.Model("LSTM0")
	mm.Submitted()
	mm.Completed(3e-3)
	mm.Batch(1)
	data, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if len(snap.Models) != 1 || snap.Models[0].Model != "LSTM0" || snap.Models[0].Completed != 1 {
		t.Errorf("round trip lost data: %+v", snap)
	}
	if snap.Models[0].BatchDist[1] != 1 {
		t.Errorf("batch dist lost: %+v", snap.Models[0].BatchDist)
	}
}

func TestMetricsTextRendering(t *testing.T) {
	m := NewMetrics()
	for _, name := range []string{"B", "A"} {
		mm := m.Model(name)
		mm.Submitted()
		mm.Completed(1e-3)
		mm.Batch(1)
	}
	text := m.Text()
	for _, want := range []string{"model", "submitted", "p99ms", "A", "B", "batch sizes"} {
		if !strings.Contains(text, want) {
			t.Errorf("text missing %q:\n%s", want, text)
		}
	}
	// Deterministic ordering: A before B.
	if strings.Index(text, "\nA ") > strings.Index(text, "\nB ") {
		t.Error("models not sorted")
	}
}

func TestMetricsEmptyModel(t *testing.T) {
	m := NewMetrics()
	s := m.Model("idle").snapshot()
	if s.P50Ms != 0 || s.P99Ms != 0 || s.MeanBatch != 0 || s.MeanMs != 0 {
		t.Errorf("empty model has nonzero stats: %+v", s)
	}
	// Model() returns the same instance on repeat lookups.
	if m.Model("idle") != m.Model("idle") {
		t.Error("Model() not idempotent")
	}
}
