// Acceptance tests for the fleet saturation report on the six-app 8x4
// ramp: the rendering is golden-pinned and byte-identical across
// same-seed runs, CNN1 — the app whose only deadline-safe operating point
// leaves microseconds of fill window — is attributed fill-window-limited,
// and the analyzer reports its knee rate and SLO burn. Regenerate the
// golden with: go test ./internal/experiments -run TestSaturation -update
package experiments

import (
	"testing"
)

func TestSaturationReport(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale simulation")
	}
	r, err := RunCluster(ClusterConfig{}) // acceptance defaults
	if err != nil {
		t.Fatal(err)
	}
	if r.Report == nil {
		t.Fatal("RunCluster returned no saturation report")
	}
	checkGolden(t, "cluster_saturation.txt", r.Report.Render())

	var cnn1 *struct {
		bottleneck string
		kneeRate   float64
		kneeFound  bool
		burn       float64
	}
	for _, a := range r.Report.Apps {
		if a.Name == "CNN1" {
			cnn1 = &struct {
				bottleneck string
				kneeRate   float64
				kneeFound  bool
				burn       float64
			}{a.Bottleneck, a.Knee.Rate, a.Knee.Detected, a.SLO.LongBurn}
		}
		// Every served app gets an attribution and a burn computation.
		if a.Bottleneck == "" || a.Why == "" {
			t.Errorf("%s has no bottleneck attribution", a.Name)
		}
		if a.SLO.Target != 0.99 {
			t.Errorf("%s SLO target %v, want the default 0.99", a.Name, a.SLO.Target)
		}
	}
	if cnn1 == nil {
		t.Fatal("CNN1 missing from the report: it must be served (not skipped) at the 7 ms SLA")
	}
	// The acceptance criterion: CNN1's batch-11 operating point leaves a
	// microsecond-scale fill window, so its batches dispatch near empty off
	// the fill timer — the analyzer must name that, not device pressure.
	if cnn1.bottleneck != "fill-window-limited" {
		t.Errorf("CNN1 attributed %q, want fill-window-limited", cnn1.bottleneck)
	}
	if !cnn1.kneeFound || cnn1.kneeRate <= 0 {
		t.Errorf("CNN1 knee not reported (detected=%v rate=%v)", cnn1.kneeFound, cnn1.kneeRate)
	}
	if cnn1.burn <= 1 {
		t.Errorf("CNN1 long-window SLO burn %v, want > 1 (it sheds far past its budget on this ramp)", cnn1.burn)
	}

	// Determinism twin: an independent same-seed run renders (text and
	// JSON) byte-identically.
	r2, err := RunCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Report.Render() != r2.Report.Render() {
		t.Error("same-seed saturation reports differ")
	}
	j1, err1 := r.Report.JSON()
	j2, err2 := r2.Report.JSON()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if string(j1) != string(j2) {
		t.Error("same-seed saturation JSON differs")
	}
}

// TestClusterTraceOption: with Trace set, RunCluster returns the ramp's
// virtual-time spans — batches under host process groups, the kill and the
// autoscaler's actions on cluster tracks — and the run is still
// deterministic.
func TestClusterTraceOption(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale simulation")
	}
	r, err := RunCluster(ClusterConfig{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Spans) == 0 {
		t.Fatal("Trace run recorded no spans")
	}
	procs := map[string]bool{}
	names := map[string]bool{}
	for _, s := range r.Spans {
		procs[s.Proc] = true
		names[s.Name] = true
	}
	for _, want := range []string{"host0", "cluster", "apps"} {
		if !procs[want] {
			t.Errorf("trace has no spans on process %q", want)
		}
	}
	if !names["kill host0"] {
		t.Error("trace does not show the host kill")
	}
	if !names["request"] {
		t.Error("trace has no request spans")
	}
	// Tracing must not perturb the simulation: the snapshot matches an
	// untraced same-seed run.
	plain, err := RunCluster(ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Snap.Render() != plain.Snap.Render() {
		t.Error("tracing changed the simulation outcome")
	}
}
