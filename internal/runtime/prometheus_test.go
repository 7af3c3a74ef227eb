package runtime

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpusim/internal/obs"
	"tpusim/internal/tpu"
)

// update rewrites the runtime Prometheus golden file:
//
//	go test ./internal/runtime -run TestRuntimePrometheusGolden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// promFixture builds a 2-device server with deterministic health and
// resilience state (no wall-clock-dependent fields) so the exposition is
// stable: device 0 is healthy with one recovered failure, device 1 is
// quarantined with probing disabled.
func promFixture(t *testing.T) *Server {
	t.Helper()
	s, err := NewServerWith(2, tpu.DefaultConfig(), ServerOptions{
		Resilience: &Resilience{ProbeEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	boom := errors.New("synthetic failure")
	s.recordFailure(0, boom)
	// A recovery without a run, so the run counters stay at zero.
	s.transition(0, "success", func(d *Driver) HealthState {
		d.consecFail = 0
		return Healthy
	})
	for i := 0; i < 3; i++ {
		s.recordFailure(1, boom)
	}
	s.stats = ResilienceStats{
		Retries:              2,
		Failovers:            1,
		Hedges:               3,
		HedgeWins:            1,
		AttemptTimeouts:      2,
		CrossCheckMismatches: 1,
	}
	return s
}

// TestRuntimePrometheusGolden pins the fleet exposition — the tpu_device_*
// gauges plus the health-state and resilience families this package
// exports — so dashboards and scrape configs don't silently break.
func TestRuntimePrometheusGolden(t *testing.T) {
	s := promFixture(t)
	var b strings.Builder
	s.WritePrometheus(&b)
	got := b.String()
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
		t.Errorf("runtime Prometheus exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s(run with -update to accept)",
			got, string(want))
	}
}

// TestRuntimePrometheusSeries asserts the new fault-tolerance series by
// value, independent of the golden file's formatting.
func TestRuntimePrometheusSeries(t *testing.T) {
	s := promFixture(t)
	var b strings.Builder
	s.WritePrometheus(&b)
	text := b.String()
	for _, line := range []string{
		`tpu_device_state{device="tpu0"} 0`,
		`tpu_device_state{device="tpu1"} 2`,
		`tpu_device_state_transitions_total{device="tpu0"} 2`,
		`tpu_device_state_transitions_total{device="tpu1"} 2`,
		`tpu_device_failures_total{device="tpu0"} 1`,
		`tpu_device_failures_total{device="tpu1"} 3`,
		`tpu_device_probes_total{device="tpu1"} 0`,
		`tpu_retries_total 2`,
		`tpu_failovers_total 1`,
		`tpu_hedges_total 3`,
		`tpu_hedge_wins_total 1`,
		`tpu_attempt_timeouts_total 2`,
		`tpu_crosscheck_mismatches_total 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("exposition missing %q", line)
		}
	}
	// Every family must carry HELP/TYPE headers.
	for _, fam := range []string{
		"tpu_device_state", "tpu_device_state_transitions_total",
		"tpu_device_failures_total", "tpu_device_probes_total",
		"tpu_retries_total", "tpu_failovers_total", "tpu_hedges_total",
		"tpu_hedge_wins_total", "tpu_attempt_timeouts_total",
		"tpu_crosscheck_mismatches_total",
	} {
		for _, hdr := range []string{"# HELP " + fam + " ", "# TYPE " + fam + " "} {
			if !strings.Contains(text, hdr) {
				t.Errorf("exposition missing %q header", hdr)
			}
		}
	}
	// Snapshot consistency with the state machine.
	h := s.Stats()
	if h[0].State != Healthy || h[1].State != Quarantined {
		t.Errorf("health states = %v/%v, want healthy/quarantined", h[0].State, h[1].State)
	}
	if h[1].LastError == "" {
		t.Error("quarantined device lost its last error")
	}
	if got := fmt.Sprint(h[1].ConsecutiveFailures); got != "3" {
		t.Errorf("consecutive failures = %s, want 3", got)
	}
}
