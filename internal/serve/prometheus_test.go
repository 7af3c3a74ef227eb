package serve

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tpusim/internal/obs"
)

// update rewrites the Prometheus golden file:
//
//	go test ./internal/serve -run TestPrometheusGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// sixApps is the paper's benchmark set; the exposition must carry all of
// them (acceptance: counter/gauge/histogram lines for all six apps).
var sixApps = []string{"MLP0", "MLP1", "LSTM0", "LSTM1", "CNN0", "CNN1"}

// fixedRegistry builds a registry with deterministic, distinct per-app
// state so the golden file exercises every metric family. It writes the
// folded state directly: its completions are not the sum of its batch
// sizes, which no sequence of lane events produces.
func fixedRegistry() *Metrics {
	m := NewMetrics()
	for i, app := range sixApps {
		mm := m.Model(app)
		n := &mm.n
		n[evShedQueue] = 1
		if i%2 == 0 {
			n[evExpired] = 1
		}
		if i == 3 {
			n[evFailed] = 1
		}
		if i == 4 {
			n[evShedBrownout] = 1
			mm.breakerState = BreakerBrownout
		}
		if i == 5 {
			n[evShedBreaker] = 2
			mm.breakerState = BreakerOpen
		}
		submitted := 10 * (i + 1)
		n[evAdmitted] = uint64(submitted) - n[evShedQueue] - n[evShedBrownout] - n[evShedBreaker]
		n[evServed] = uint64(submitted - i - 3)
		for j := 0; j < submitted-i-3; j++ {
			// Latencies spread across buckets: 0.2ms..~13ms.
			mm.hist.Observe(2e-4 * float64(j+1))
		}
		mm.batchDist[i+1]++
		mm.batchDist[2*(i+1)]++
		mm.queueDepth, mm.maxQueueDepth = i/2, i
	}
	return m
}

// uptimeRe normalizes the one wall-clock-dependent line.
var uptimeRe = regexp.MustCompile(`(?m)^tpuserve_uptime_seconds .*$`)

func normalize(exposition string) string {
	return uptimeRe.ReplaceAllString(exposition, "tpuserve_uptime_seconds 0")
}

// TestPrometheusGolden pins the exposition format: metric names, labels,
// HELP/TYPE lines, and ordering must not drift (dashboards and scrape
// configs depend on them).
func TestPrometheusGolden(t *testing.T) {
	got := normalize(fixedRegistry().Prometheus())
	if err := obs.CheckExposition(got); err != nil {
		t.Error(err)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("Prometheus exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s(run with -update to accept)",
			got, string(want))
	}
}

// TestPrometheusCoversAllApps asserts the acceptance shape directly:
// counter, gauge, and histogram lines present for each of the six apps,
// with values matching the registry snapshot.
func TestPrometheusCoversAllApps(t *testing.T) {
	m := fixedRegistry()
	text := m.Prometheus()
	snap := m.Snapshot()
	if len(snap.Models) != len(sixApps) {
		t.Fatalf("snapshot has %d models, want %d", len(snap.Models), len(sixApps))
	}
	for _, s := range snap.Models {
		for _, line := range []string{
			fmt.Sprintf("tpuserve_requests_submitted_total{model=%q} %d", s.Model, s.Submitted),
			fmt.Sprintf("tpuserve_requests_completed_total{model=%q} %d", s.Model, s.Completed),
			fmt.Sprintf("tpuserve_requests_shed_total{model=%q,reason=\"queue_full\"} %d", s.Model, s.ShedQueue),
			fmt.Sprintf("tpuserve_requests_shed_total{model=%q,reason=\"deadline\"} %d", s.Model, s.Expired),
			fmt.Sprintf("tpuserve_requests_shed_total{model=%q,reason=\"brownout\"} %d", s.Model, s.ShedBrownout),
			fmt.Sprintf("tpuserve_requests_shed_total{model=%q,reason=\"breaker_open\"} %d", s.Model, s.ShedBreaker),
			fmt.Sprintf("tpuserve_requests_errored_total{model=%q} %d", s.Model, s.Errored),
			fmt.Sprintf("tpuserve_queue_depth{model=%q} %d", s.Model, s.QueueDepth),
			fmt.Sprintf("tpuserve_batches_total{model=%q} %d", s.Model, s.Batches),
			fmt.Sprintf("tpuserve_request_latency_seconds_count{model=%q} %d", s.Model, s.Completed),
			fmt.Sprintf("tpuserve_request_latency_seconds_bucket{model=%q,le=\"+Inf\"} %d", s.Model, s.Completed),
		} {
			if !strings.Contains(text, line+"\n") {
				t.Errorf("exposition missing %q", line)
			}
		}
	}
	// Histogram buckets must be cumulative and end at the completed count.
	if !strings.Contains(text, "# TYPE tpuserve_request_latency_seconds histogram") {
		t.Error("latency histogram TYPE line missing")
	}
}
