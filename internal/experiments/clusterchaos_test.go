// Cluster chaos campaign tests: the acceptance criteria of the robustness
// story (p99 within 2x of healthy, errors under 1%, retries inside the
// budget, full recovery after the revive, and a demonstrable storm in the
// NoBudget control), a golden pin of the rendered report, the same-seed
// determinism twin over the full three-way campaign, the per-replica
// recovery delta, and both campaigns run twice at once to show their
// concurrent arms share nothing.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tpusim/internal/cluster"
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

// TestCompletedSinceIsPerReplica: the recovery delta is taken replica by
// replica, so a replica drained between the two snapshots cannot make it
// wrap around (the aggregate difference here is 120+7 − 150, below zero).
func TestCompletedSinceIsPerReplica(t *testing.T) {
	from := &cluster.Snapshot{Replicas: []cluster.ReplicaSnapshot{
		{App: "MLP0", ID: 0, Host: 0, Completed: 100},
		{App: "MLP0", ID: 1, Host: 1, Completed: 50}, // drained before to
		{App: "MLP1", ID: 0, Host: 1, Completed: 30},
		{App: "MLP0", ID: 2, Host: 5, Completed: 900}, // off the zone
	}}
	to := &cluster.Snapshot{Replicas: []cluster.ReplicaSnapshot{
		{App: "MLP0", ID: 0, Host: 0, Completed: 120},
		{App: "MLP1", ID: 0, Host: 1, Completed: 30},
		{App: "MLP1", ID: 3, Host: 0, Completed: 7}, // placed after from
		{App: "MLP0", ID: 2, Host: 5, Completed: 1000},
	}}
	if got, want := completedSince(from, to, []int{0, 1}), uint64(20+0+7); got != want {
		t.Errorf("completedSince = %d, want %d", got, want)
	}
	if got := completedSince(to, to, []int{0, 1}); got != 0 {
		t.Errorf("completedSince of a snapshot against itself = %d, want 0", got)
	}
}

// TestCampaignArmsShareNothing: each campaign runs its arms on goroutines
// of their own, so two campaigns run at once on the same config must
// still render byte-identical reports and event logs. Under -race this
// also fails on any mutable state the arms (or the two campaigns) share.
func TestCampaignArmsShareNothing(t *testing.T) {
	t.Parallel()
	const base = 0.05
	var (
		chaos   [2]*ClusterChaosResult
		rollout [2]*RolloutResult
	)
	fns := make([]func() error, 0, 4)
	for i := range 2 {
		fns = append(fns,
			func() (err error) {
				chaos[i], err = RunClusterChaos(ClusterChaosConfig{RampSeconds: base})
				return err
			},
			func() (err error) {
				rollout[i], err = RunRollout(RolloutConfig{BaseSeconds: base})
				return err
			})
	}
	if err := concurrently(fns...); err != nil {
		t.Fatal(err)
	}
	for _, cmp := range []struct {
		name string
		a, b string
	}{
		{"chaos report", RenderClusterChaos(chaos[0]), RenderClusterChaos(chaos[1])},
		{"chaos events", fmt.Sprint(chaos[0].Events), fmt.Sprint(chaos[1].Events)},
		{"rollout report", RenderRollout(rollout[0]), RenderRollout(rollout[1])},
		{"rollout bad events", fmt.Sprint(rollout[0].BadEvents), fmt.Sprint(rollout[1].BadEvents)},
		{"rollout good events", fmt.Sprint(rollout[0].GoodEvents), fmt.Sprint(rollout[1].GoodEvents)},
	} {
		if cmp.a != cmp.b {
			t.Errorf("concurrent same-seed campaigns differ in the %s:\n--- A ---\n%s\n--- B ---\n%s", cmp.name, cmp.a, cmp.b)
		}
	}
}
