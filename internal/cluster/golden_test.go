// Golden snapshot tests pin the cluster simulator's end-to-end behavior:
// a fixed fleet, seed and fault schedule must render byte-identical
// snapshots forever. Any change to routing, placement, batching, failover
// or autoscaling shows up as a readable diff against testdata/golden.
// Regenerate intentionally with: go test ./internal/cluster -run Golden -update
package cluster

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tpusim/internal/latency"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenCluster is the pinned scenario: three apps with distinct service
// shapes and load curves on a 4x2 fleet, one host killed mid-run, the
// autoscaler live. Small enough to read, rich enough that every subsystem
// leaves fingerprints in the snapshot.
func goldenCluster(t *testing.T) *Cluster {
	t.Helper()
	return goldenClusterWith(t, nil)
}

// goldenClusterWith is the same scenario with observability attached; the
// telemetry tests use it to prove instrumentation never perturbs the run.
func goldenClusterWith(t *testing.T, tel *Telemetry) *Cluster {
	t.Helper()
	mkApp := func(name string, base, perRow float64, rate workload.Curve, replicas int) AppConfig {
		return AppConfig{
			Name:            name,
			Service:         latency.ServiceFunc(func(b int) (float64, error) { return base + perRow*float64(b), nil }),
			Policy:          serve.Policy{MaxBatch: 64, SLASeconds: 7e-3},
			WeightBytes:     512 << 20,
			Curve:           rate,
			InitialReplicas: replicas,
			MinReplicas:     1,
		}
	}
	ramp, err := workload.NewPiecewiseLinear(
		workload.Point{T: 0, Rate: 2000},
		workload.Point{T: 3, Rate: 12000},
		workload.Point{T: 6, Rate: 1500},
	)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := workload.NewMultiPeriod(3000, workload.Harmonic{Amp: 1500, Period: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 2,
		Router: BoundedHash,
		Apps: []AppConfig{
			mkApp("MLP", 0.4e-3, 0.09e-3, ramp, 1), // scales up through the ramp, back down after
			mkApp("LSTM", 0.8e-3, 0.09e-3, diurnal, 2),
			mkApp("CNN", 1.2e-3, 0.07e-3, workload.Constant(1200), 1),
		},
		Seed:      7,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "kill=1@2.5")
	return c
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\nRegenerate with -update if the change is intentional.",
			name, got, want)
	}
}

// TestGoldenSnapshot pins the mid-run and final snapshots of the scenario.
func TestGoldenSnapshot(t *testing.T) {
	c := goldenCluster(t)
	c.Run(3) // past the kill, mid-ramp
	checkGolden(t, "cluster_mid.txt", c.Snapshot().Render())
	c.Run(6) // ramp ebbed, autoscaler has drained
	checkGolden(t, "cluster_final.txt", c.Snapshot().Render())
}

// TestGoldenSnapshotDeterminism is the same-seed/twice twin of the golden
// test: two independently built runs must render byte-identically, so a
// golden failure always means drift, never nondeterminism.
func TestGoldenSnapshotDeterminism(t *testing.T) {
	a, b := goldenCluster(t), goldenCluster(t)
	a.Run(6)
	b.Run(6)
	ra, rb := a.Snapshot().Render(), b.Snapshot().Render()
	if ra != rb {
		t.Errorf("same-seed runs rendered different snapshots:\n--- run A ---\n%s\n--- run B ---\n%s", ra, rb)
	}
}
