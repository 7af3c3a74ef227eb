// Saturation analyzer tests: the knee detector and bottleneck classifier
// on synthetic inputs (every branch reachable without hunting for a
// scenario), the SLO burn arithmetic, and the end-to-end report on the
// golden scenario — pinned by a golden file and a same-seed determinism
// twin, like every other cluster rendering.
package cluster

import (
	"strings"
	"testing"

	"tpusim/internal/serve"
)

func TestSaturationRequiresTelemetry(t *testing.T) {
	c := goldenCluster(t)
	c.Run(1)
	if _, err := c.SaturationReport(); err == nil {
		t.Fatal("report built without a metrics registry")
	}
	tracerOnly := goldenClusterWith(t, &Telemetry{})
	if _, err := tracerOnly.SaturationReport(); err == nil {
		t.Fatal("report built from a Telemetry with no Metrics")
	}
}

func TestWindowSignal(t *testing.T) {
	sla := 7e-3
	cases := []struct {
		name string
		w    Window
		want string
	}{
		{"too-few-arrivals", Window{Offered: 9, Shed: 9}, ""},
		{"healthy", Window{Offered: 100, Completed: 100, P99: 5e-3}, ""},
		{"shed-onset", Window{Offered: 100, Completed: 97, Shed: 2, P99: 5e-3}, "shed-onset"},
		{"divergence", Window{Offered: 100, Completed: 80, P99: 5e-3}, "throughput-divergence"},
		{"p99", Window{Offered: 100, Completed: 100, P99: 8e-3}, "p99-sla"},
		// Shed wins over divergence wins over p99 when several fire at once.
		{"priority", Window{Offered: 100, Completed: 50, Shed: 50, P99: 9e-3}, "shed-onset"},
	}
	for _, tc := range cases {
		if got := windowSignal(tc.w, sla); got != tc.want {
			t.Errorf("%s: signal %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestDetectKnee(t *testing.T) {
	sla := 7e-3
	healthy := Window{Offered: 100, Completed: 100, P99: 5e-3}
	sat := func(end float64, offered uint64) Window {
		return Window{End: end, Offered: offered, Completed: offered / 2, P99: 5e-3}
	}

	// One saturated window between healthy ones is noise, not a knee.
	if k := detectKnee([]Window{healthy, sat(0.2, 100), healthy}, 0.1, sla, nil); k.Detected {
		t.Errorf("single noisy window detected as knee: %+v", k)
	}
	// Two consecutive saturated windows: the knee is the FIRST of the run.
	k := detectKnee([]Window{healthy, sat(0.2, 120), sat(0.3, 140)}, 0.1, sla, nil)
	if !k.Detected {
		t.Fatal("two consecutive saturated windows not detected")
	}
	if k.Time != 0.2 || k.Rate != 1200 || k.Signal != "throughput-divergence" {
		t.Errorf("knee = %+v, want first window of the run (t=0.2, 1200/s, divergence)", k)
	}
	// The debounce counter must reset across a healthy gap.
	k = detectKnee([]Window{sat(0.1, 100), healthy, sat(0.3, 100), healthy}, 0.1, sla, nil)
	if k.Detected {
		t.Errorf("alternating windows detected as knee: %+v", k)
	}
}

func TestBurnRates(t *testing.T) {
	am := &appMetrics{AppCounters: AppCounters{
		Offered:   1000,
		ShedQueue: 10, Expired: 10, Errors: 0, // bad = 20 of 1000 = 2%
	}}
	// Last window burns 5%; the four before are clean.
	for i := 0; i < 4; i++ {
		am.windows = append(am.windows, Window{Offered: 100, Completed: 100})
	}
	am.windows = append(am.windows, Window{Offered: 100, Completed: 95, Shed: 5})

	b := burnRates(am, 0.05, 0.99) // 1% budget
	if b.BadFrac != 0.02 {
		t.Errorf("BadFrac = %v, want 0.02", b.BadFrac)
	}
	if b.BudgetSpent < 1.99 || b.BudgetSpent > 2.01 {
		t.Errorf("BudgetSpent = %v, want ~2.0 (2%% bad on a 1%% budget)", b.BudgetSpent)
	}
	if b.ShortBurn < 4.99 || b.ShortBurn > 5.01 {
		t.Errorf("ShortBurn = %v, want ~5.0 (5%% bad in the last window)", b.ShortBurn)
	}
	if b.LongBurn < 0.99 || b.LongBurn > 1.01 {
		t.Errorf("LongBurn = %v, want ~1.0 (5 bad of 500 over five windows)", b.LongBurn)
	}
	if b.ShortWindowSeconds != 0.05 || b.LongWindowSeconds != 0.25 {
		t.Errorf("window horizons %v/%v, want 0.05/0.25", b.ShortWindowSeconds, b.LongWindowSeconds)
	}
}

// TestClassifyBottleneck drives every attribution branch with synthetic
// registries. The fill-window case is the one the acceptance criteria
// name: CNN1-shaped apps dispatch near-empty batches off the fill timer,
// and must not be mislabeled device-limited even at high utilization.
func TestClassifyBottleneck(t *testing.T) {
	mkApp := func(safeBatch, maxReplicas int) *app {
		return &app{
			cfg:  AppConfig{Name: "x", MaxReplicas: maxReplicas},
			plan: serve.Plan{SafeBatch: safeBatch, MaxWaitSeconds: 2e-3},
		}
	}
	cases := []struct {
		name string
		a    *app
		am   *appMetrics
		sat  AppSaturation
		want string
	}{
		{
			"fill-window", mkApp(16, 32),
			&appMetrics{batches: 100, trig: [numTriggers]uint64{10, 80, 10}},
			AppSaturation{MeanBatch: 1.5, Utilization: 0.95}, // high util must not shadow it
			"fill-window-limited",
		},
		{
			"device", mkApp(16, 32),
			&appMetrics{batches: 100, trig: [numTriggers]uint64{80, 10, 10}},
			AppSaturation{MeanBatch: 15, Utilization: 0.95},
			"device-limited",
		},
		{
			"queue", mkApp(16, 32),
			&appMetrics{batches: 100, AppCounters: AppCounters{ShedQueue: 500, Expired: 20}},
			AppSaturation{MeanBatch: 15, Utilization: 0.5},
			"queue-limited",
		},
		{
			"replica-count", mkApp(16, 4),
			&appMetrics{batches: 100, liveReplicas: 4, actions: [numScaleActions]uint64{actScaleBlocked: 3}},
			AppSaturation{MeanBatch: 15, Utilization: 0.5},
			"replica-count-limited",
		},
		{
			"headroom", mkApp(16, 32),
			&appMetrics{batches: 100, liveReplicas: 2},
			AppSaturation{MeanBatch: 15, Utilization: 0.3},
			"headroom",
		},
	}
	for _, tc := range cases {
		got, why := classifyBottleneck(tc.a, tc.am, tc.sat)
		if got != tc.want {
			t.Errorf("%s: classified %q (%s), want %q", tc.name, got, why, tc.want)
		}
		if why == "" {
			t.Errorf("%s: no evidence line", tc.name)
		}
	}
}

// TestSaturationGolden pins the analyzer's end-to-end rendering on the
// golden scenario. Regenerate with -update.
func TestSaturationGolden(t *testing.T) {
	c, _ := telemeteredCluster(t)
	c.Run(6)
	r, err := c.SaturationReport()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_saturation.txt", r.Render())

	// The report must carry the structural facts whatever the numbers do.
	out := r.Render()
	for _, want := range []string{"MLP", "LSTM", "CNN", "knee", "slo:", "host device utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"bottleneck"`, `"knee"`, `"slo"`, `"host_utilization"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

// TestSaturationDeterminism is the same-seed twin: two independently
// built and instrumented runs must render byte-identical reports, so a
// golden failure always means drift, never nondeterminism.
func TestSaturationDeterminism(t *testing.T) {
	render := func() (string, string) {
		c, _ := telemeteredCluster(t)
		c.Run(6)
		r, err := c.SaturationReport()
		if err != nil {
			t.Fatal(err)
		}
		data, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return r.Render(), string(data)
	}
	ta, ja := render()
	tb, jb := render()
	if ta != tb {
		t.Errorf("same-seed saturation reports differ:\n--- A ---\n%s\n--- B ---\n%s", ta, tb)
	}
	if ja != jb {
		t.Error("same-seed saturation JSON differs")
	}
}
