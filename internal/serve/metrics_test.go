package serve

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

// admitN folds n admission events of the given kind.
func admitN(mm *ModelMetrics, kind eventKind, n int) {
	for i := 0; i < n; i++ {
		mm.record(&event{kind: kind})
	}
}

// settle folds one batch event of the given kind whose n requests each took
// lat seconds.
func settle(mm *ModelMetrics, kind eventKind, n int, lat float64) {
	calls := make([]*call, n)
	for i := range calls {
		calls[i] = &call{arrived: -lat}
	}
	mm.record(&event{kind: kind, calls: calls})
}

func TestMetricsCountersAndSnapshot(t *testing.T) {
	m := NewMetrics()
	mm := m.Model("MLP0")
	admitN(mm, evAdmitted, 8)
	admitN(mm, evShedQueue, 2)
	settle(mm, evServed, 6, 2e-3)
	settle(mm, evExpired, 1, 0)
	settle(mm, evFailed, 1, 0)
	mm.record(&event{kind: evTaken, depth: 3})

	snap := m.Snapshot()
	if len(snap.Models) != 1 {
		t.Fatalf("%d models", len(snap.Models))
	}
	s := snap.Models[0]
	if s.Submitted != 10 || s.Completed != 6 || s.ShedQueue != 2 || s.Expired != 1 || s.Errored != 1 {
		t.Errorf("counters wrong: %+v", s)
	}
	if s.InFlight != 0 {
		t.Errorf("in flight = %d, want 0 (8 admitted = 6+1+1)", s.InFlight)
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
	admitN(mm, evAdmitted, 2)
	settle(mm, evServed, 1, 1e-3)
	if got := mm.snapshot().InFlight; got != 1 {
		t.Errorf("in flight = %d, want 1", got)
	}
}

func TestMetricsQuantileSpread(t *testing.T) {
	m := NewMetrics()
	mm := m.Model("X")
	// 95 fast requests and 5 slow: p50 near 1 ms, p99 lands in the tail.
	settle(mm, evServed, 95, 1e-3)
	settle(mm, evServed, 5, 50e-3)
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
	admitN(mm, evAdmitted, 1)
	settle(mm, evServed, 1, 3e-3)
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
		admitN(mm, evAdmitted, 1)
		settle(mm, evServed, 1, 1e-3)
	}
	// A model whose breaker shed, and one that shed under brownout, beside
	// the queue sheds, expiries and failures every model can have.
	brk, bo := m.Model("Brk"), m.Model("BO")
	admitN(brk, evAdmitted, 3)
	admitN(brk, evShedBreaker, 4)
	admitN(brk, evShedQueue, 1)
	settle(brk, evServed, 2, 1e-3)
	settle(brk, evFailed, 1, 0)
	admitN(bo, evAdmitted, 2)
	admitN(bo, evShedBrownout, 5)
	settle(bo, evServed, 1, 1e-3)
	settle(bo, evExpired, 1, 0)

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

	// Every row balances: each submitted request is completed, shed for
	// one of three reasons, expired, failed or still queued.
	lines := strings.Split(text, "\n")
	header := strings.Fields(lines[1])
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	rows := 0
	for _, line := range lines[2:] {
		f := strings.Fields(line)
		if len(f) != len(header) {
			continue
		}
		rows++
		v := func(name string) int {
			i, ok := col[name]
			if !ok {
				t.Fatalf("no %q column in %q", name, lines[1])
			}
			n, err := strconv.Atoi(f[i])
			if err != nil {
				t.Fatalf("%s %s: %v", f[0], name, err)
			}
			return n
		}
		settled := v("completed") + v("shedQ") + v("shedBO") + v("shedBrk") + v("expired") + v("errs") + v("queue")
		if v("submitted") != settled {
			t.Errorf("%s: submitted %d, but its outcomes sum to %d:\n%s", f[0], v("submitted"), settled, text)
		}
	}
	if rows != 4 {
		t.Errorf("%d model rows, want 4:\n%s", rows, text)
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
