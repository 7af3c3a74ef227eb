package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"

	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/obs"
	"tpusim/internal/runtime"
	"tpusim/internal/tpu"
)

// TestSubmitSpanTree is the PR's acceptance test: one Submit against the
// full stack (serve -> runtime driver -> traced device) must produce a
// single trace whose span tree covers every layer, with the device's
// cycle-domain unit events stitched inside the wall-clock run span, and
// the exported Chrome trace JSON must be schema-valid.
func TestSubmitSpanTree(t *testing.T) {
	cfg := tpu.DefaultConfig()
	cfg.Trace = true // device records per-instruction unit occupancy
	srv, err := runtime.NewServer(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Tiny("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	b := NewRuntimeBackend(srv)
	if err := b.AddModel(m, nn.InitRandom(m, 7, 0.25)); err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(obs.DefaultCapacity)
	s := NewServer(b)
	s.Observe(tr, slog.New(slog.DiscardHandler))
	if _, err := s.Register(m.Name, ModelConfig{
		Policy:  Policy{MaxBatch: m.Batch, SLASeconds: 10, MaxWaitSeconds: 1e-4},
		Service: linearService(1e-4, 1e-6),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(m.Name, requestRows(m, 1)[0]); err != nil {
		t.Fatal(err)
	}
	s.Close()

	spans := tr.Spans()
	byName := map[string]obs.SpanData{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	// Serving layer, runtime layer, device layer all present.
	for _, name := range []string{"request", "admit", "queue", "dispatch", "device-pick", "compile", "run"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("span %q missing from trace; have %d spans", name, len(spans))
		}
	}
	root, run := byName["request"], byName["run"]
	if root.Parent != 0 {
		t.Error("request span is not the root")
	}
	// Every span belongs to the one request trace.
	for _, sp := range spans {
		if sp.Trace != root.Trace {
			t.Errorf("span %q on trace %d, want %d", sp.Name, sp.Trace, root.Trace)
		}
	}
	// Parent chain: run under dispatch under the request root.
	if d := byName["dispatch"]; d.Parent != root.ID || run.Parent != d.ID {
		t.Errorf("parent chain broken: dispatch->%d run->%d (root=%d dispatch=%d)",
			d.Parent, run.Parent, root.ID, d.ID)
	}
	// Device cycle events: children of the run span, on the device's unit
	// tracks, stitched into the run span's wall-clock window.
	devSpans := 0
	for _, sp := range spans {
		if sp.Parent != run.ID {
			continue
		}
		devSpans++
		if !strings.HasPrefix(sp.Track, "tpu0/") {
			t.Errorf("device span %q on track %q, want tpu0/<unit>", sp.Name, sp.Track)
		}
		if sp.Start.Before(run.Start) || sp.End.After(run.End) {
			t.Errorf("device span %q [%v,%v] escapes run window [%v,%v]",
				sp.Name, sp.Start, sp.End, run.Start, run.End)
		}
		// Cycle truth preserved alongside the wall-clock mapping.
		hasCycles := false
		for _, a := range sp.Attrs {
			if a.Key == "cycle_start" {
				hasCycles = true
			}
		}
		if !hasCycles {
			t.Errorf("device span %q lost its cycle attrs", sp.Name)
		}
	}
	if devSpans == 0 {
		t.Fatal("no device unit spans nested inside the run span")
	}

	// The exported trace must be schema-valid Chrome trace-event JSON.
	var data bytes.Buffer
	if err := obs.WriteChromeTrace(&data, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data.Bytes(), &events); err != nil {
		t.Fatalf("exported trace is not a JSON array: %v", err)
	}
	for i, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q", i, key)
			}
		}
	}
}

// TestObserveDisabledServesIdentically: a server without Observe must
// behave exactly as before the telemetry PR — no spans, no logs, same
// results.
func TestObserveDisabledServesIdentically(t *testing.T) {
	b, m, _ := tinyServed(t, "MLP0")
	s := NewServer(b)
	if s.tracer != nil {
		t.Fatal("fresh server has a tracer")
	}
	if _, err := s.Register(m.Name, ModelConfig{
		Policy:  Policy{MaxBatch: m.Batch, SLASeconds: 10, MaxWaitSeconds: 1e-4},
		Service: linearService(1e-4, 1e-6),
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Submit(m.Name, requestRows(m, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Output == nil || len(resp.Output.Data) == 0 {
		t.Error("empty output with telemetry disabled")
	}
	s.Close()
}

// TestOpsServesServeMetrics wires the serve registry into the ops endpoint
// the way cmd/tpuserve does and asserts the scrape matches the snapshot
// for all six apps — the /metrics acceptance criterion, run under -race by
// the obs-smoke CI target.
func TestOpsServesServeMetrics(t *testing.T) {
	m := fixedRegistry()
	ops := obs.NewOps(nil)
	ops.AddCollector(m.WritePrometheus)
	srv, err := ops.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	snap := m.Snapshot()
	if len(snap.Models) != len(sixApps) {
		t.Fatalf("registry has %d models, want %d", len(snap.Models), len(sixApps))
	}
	for _, s := range snap.Models {
		for _, line := range []string{
			`tpuserve_requests_submitted_total{model="` + s.Model + `"} `,
			`tpuserve_requests_completed_total{model="` + s.Model + `"} `,
			`tpuserve_request_latency_seconds_bucket{model="` + s.Model + `",le="+Inf"} `,
		} {
			if !strings.Contains(body, line) {
				t.Errorf("scrape missing %q", line)
			}
		}
	}
	// The scrape is the direct exposition verbatim (modulo the wall-clock
	// uptime line), so dashboards see exactly the registry snapshot.
	if !strings.Contains(normalize(body), normalize(m.Prometheus())) {
		t.Error("scraped /metrics does not contain the registry exposition")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
