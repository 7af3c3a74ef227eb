// Acceptance test for the cluster scale-out experiment: the 8x4 fleet
// serves the six-app mix through the 25%->150% ramp with a host killed
// mid-ramp, and the autoscaler must hold every served app's p99 inside
// the SLA with under 1% client-visible errors — deterministically.
package experiments

import (
	"strings"
	"testing"
)

func TestClusterAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale simulation")
	}
	cfg := ClusterConfig{} // acceptance defaults: 8x4, bounded-hash, kill host 0
	r, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Apps) + len(r.Skipped); got != 6 {
		t.Fatalf("six-app mix accounted for %d apps", got)
	}
	if len(r.Apps) == 0 {
		t.Fatal("no app had an operating point")
	}

	// Every served app holds the SLA at p99 with <1% errors.
	for _, a := range r.Snap.Apps {
		if a.Completed == 0 {
			t.Errorf("%s completed nothing", a.Name)
		}
		if a.P99Ms > 7.0 {
			t.Errorf("%s p99 %.3f ms breaches the 7 ms SLA", a.Name, a.P99Ms)
		}
		if a.ErrorRate >= 0.01 {
			t.Errorf("%s error rate %.3f%% >= 1%%", a.Name, a.ErrorRate*100)
		}
	}

	// The kill actually happened and the autoscaler actually acted.
	kinds := map[string]int{}
	for _, e := range r.Events {
		kinds[e.Kind]++
	}
	if kinds["kill"] != 1 {
		t.Errorf("want exactly 1 kill event, got %d", kinds["kill"])
	}
	if kinds["quarantine"] == 0 {
		t.Error("host kill quarantined no replicas")
	}
	if kinds["scale-up"] == 0 {
		t.Error("ramp to 150% forced no scale-ups")
	}
	if r.Snap.HostsAlive != r.Cfg.Hosts-1 {
		t.Errorf("hosts alive %d, want %d", r.Snap.HostsAlive, r.Cfg.Hosts-1)
	}

	// Determinism: an independent same-config run renders byte-identically.
	r2, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if RenderCluster(r) != RenderCluster(r2) {
		t.Error("same-seed cluster runs rendered different reports")
	}
}

// TestClusterRouterVariants: the experiment completes under every routing
// policy, and the report names the policy it ran.
func TestClusterRouterVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale simulation")
	}
	for _, router := range []string{"wrr", "least-loaded"} {
		cfg := ClusterConfig{Hosts: 4, DevicesPerHost: 2, Router: router, RampSeconds: 0.2}
		r, err := RunCluster(cfg)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		out := RenderCluster(r)
		if !strings.Contains(out, "router="+router) {
			t.Errorf("%s report does not name its router:\n%s", router, out)
		}
		for _, a := range r.Snap.Apps {
			if a.P99Ms > 7.0 {
				t.Errorf("%s: %s p99 %.3f ms breaches the SLA", router, a.Name, a.P99Ms)
			}
		}
	}
}

func TestClusterUnknownRouter(t *testing.T) {
	if _, err := RunCluster(ClusterConfig{Router: "zebra"}); err == nil {
		t.Fatal("unknown router accepted")
	}
}

// TestCampaignVerdict pins the verdict block the zone-kill and rollout
// campaigns end with. Their goldens hold only the PASS form; a FAIL lists
// each violated criterion on its own line.
func TestCampaignVerdict(t *testing.T) {
	for _, tc := range []struct {
		violations []string
		want       string
	}{
		{nil, "\nacceptance: PASS (errors < 1%)\n"},
		{[]string{"MLP0 p99 9 ms", "2 hosts still cordoned"},
			"\nacceptance: FAIL\n  - MLP0 p99 9 ms\n  - 2 hosts still cordoned\n"},
	} {
		var b strings.Builder
		renderAcceptance(&b, tc.violations, "errors < 1%")
		if b.String() != tc.want {
			t.Errorf("verdict for %q:\n%q\nwant\n%q", tc.violations, b.String(), tc.want)
		}
	}
}
