// Cluster chaos campaign tests: the acceptance criteria of the robustness
// story (p99 within 2x of healthy, errors under 1%, retries inside the
// budget, full recovery after the revive, and a demonstrable storm in the
// NoBudget control), a golden pin of the rendered report, and the
// same-seed determinism twin over the full three-way campaign.
package experiments

import (
	"strings"
	"sync"
	"testing"
)

// clusterChaosCampaign is the default campaign, run once for the acceptance
// test and for its determinism twin to compare a rerun against.
var clusterChaosCampaign = sync.OnceValues(func() (*ClusterChaosResult, error) {
	return RunClusterChaos(ClusterChaosConfig{})
})

// TestClusterChaosAcceptance runs the default campaign and checks every
// acceptance criterion, then pins the report and the saturation analysis
// (incident attribution, not a misread capacity knee).
func TestClusterChaosAcceptance(t *testing.T) {
	t.Parallel()
	res, err := clusterChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) == 0 {
		t.Fatal("no apps in the campaign")
	}
	for _, v := range res.Acceptance() {
		t.Errorf("acceptance: %s", v)
	}

	// The storm control is the point of the comparison: without the budget
	// the same failures produce strictly more retries.
	defended, control := totalRetries(res.Chaos), totalRetries(res.Control)
	if control <= defended {
		t.Errorf("NoBudget control retried %d vs defended %d, want strictly more (the storm)", control, defended)
	}
	// The outage must actually have been an outage: the dark window shows
	// up as an incident, and mid-campaign the zone's hosts were dead.
	if len(res.Incidents) == 0 {
		t.Fatal("zone kill opened no incident")
	}
	in := res.Incidents[0]
	if in.Open || in.Start != res.Cfg.ZoneDownAt() || in.End != res.Cfg.ZoneUpAt() {
		t.Errorf("incident %v, want closed [%.2f, %.2f]", in, res.Cfg.ZoneDownAt(), res.Cfg.ZoneUpAt())
	}
	if got := len(res.ZoneHosts); got != res.Cfg.Hosts/res.Cfg.Zones {
		t.Errorf("killed zone has %d hosts, want a quarter of the fleet (%d)", got, res.Cfg.Hosts/res.Cfg.Zones)
	}
	if len(res.ChaosAtRevive.DeadHosts) != 0 {
		// The revive event at ZoneUpAt runs before the snapshot is taken.
		t.Errorf("hosts %v still dead at the revive instant", res.ChaosAtRevive.DeadHosts)
	}
	// The saturation report attributes the dark window to the incident.
	if len(res.Report.Incidents) == 0 {
		t.Error("saturation report carries no incidents")
	}
	render := RenderClusterChaos(res)
	if !strings.Contains(render, "acceptance: PASS") {
		t.Errorf("report does not say PASS:\n%s", render)
	}
	checkSaturationGolden(t, "cluster_chaos_campaign.txt", render)
}

// TestClusterChaosDeterminism: the whole three-way campaign is a pure
// function of (config, seed) — a rerun of the acceptance campaign,
// concurrent with it, has a byte-identical defended-run event log and
// renders all three snapshots identically.
func TestClusterChaosDeterminism(t *testing.T) {
	t.Parallel()
	b, err := RunClusterChaos(ClusterChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := clusterChaosCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event log lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	for _, cmp := range []struct {
		name   string
		ra, rb string
	}{
		{"healthy", a.Healthy.Render(), b.Healthy.Render()},
		{"defended", a.Chaos.Render(), b.Chaos.Render()},
		{"control", a.Control.Render(), b.Control.Render()},
	} {
		if cmp.ra != cmp.rb {
			t.Errorf("same-seed %s snapshots differ:\n--- A ---\n%s\n--- B ---\n%s", cmp.name, cmp.ra, cmp.rb)
		}
	}
}

// TestClusterChaosExtraPlan: a -chaos-plan spec layers onto the campaign
// and a bad spec fails fast.
func TestClusterChaosExtraPlan(t *testing.T) {
	if _, err := RunClusterChaos(ClusterChaosConfig{ExtraChaos: "bogus=1@2"}); err == nil {
		t.Error("malformed ExtraChaos accepted")
	}
	if _, err := RunClusterChaos(ClusterChaosConfig{ExtraChaos: "kill=99@0.1"}); err == nil {
		t.Error("out-of-fleet ExtraChaos target accepted")
	}
}
