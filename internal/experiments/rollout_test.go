// Safe change management campaign tests: the acceptance criteria of the
// change-safety story (bad v2 caught at the canary and fully rolled back
// with p99 within 2x of healthy and errors under 1%; good v2 promoted to
// 100% of the fleet with zero short-window SLO burn), a golden pin of
// the rendered report, and the same-seed determinism twin.
package experiments

import (
	"strings"
	"sync"
	"testing"
)

// rolloutCampaign is the default campaign, run once for the acceptance test
// and for its determinism twin to compare a rerun against.
var rolloutCampaign = sync.OnceValues(func() (*RolloutResult, error) {
	return RunRollout(RolloutConfig{})
})

// TestRolloutAcceptance runs the default campaign and checks every
// acceptance criterion, then pins the report.
func TestRolloutAcceptance(t *testing.T) {
	t.Parallel()
	res, err := rolloutCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) == 0 {
		t.Fatal("no apps in the campaign")
	}
	for _, v := range res.Acceptance() {
		t.Errorf("acceptance: %s", v)
	}

	// The canary is the blast-radius bound: the bad run must never
	// cordon more than the canary stage needs (no wave ever started), and
	// the rollback must restore the pre-change census.
	if got, want := len(res.Bad.Replicas), len(res.Healthy.Replicas); got < want {
		t.Errorf("bad run ended with %d replicas, healthy baseline has %d", got, want)
	}
	for _, rep := range res.Bad.Replicas {
		if rep.Draining {
			t.Errorf("%s r%d still draining after rollback", rep.App, rep.ID)
		}
	}
	// The good run's fleet is fully on v2 and every app kept its quorum.
	perApp := map[string]int{}
	for _, rep := range res.Good.Replicas {
		perApp[rep.App]++
	}
	for app, n := range perApp {
		if n < 2 {
			t.Errorf("%s ended the good rollout with %d replicas, want >= 2", app, n)
		}
	}
	render := RenderRollout(res)
	if !strings.Contains(render, "acceptance: PASS") {
		t.Errorf("report does not say PASS:\n%s", render)
	}
	checkSaturationGolden(t, "rollout_campaign.txt", render)
}

// TestRolloutDeterminism: the whole three-way campaign is a pure function
// of (config, seed) — a rerun of the acceptance campaign, concurrent with
// it, has byte-identical rollout event logs and renders all three snapshots
// identically.
func TestRolloutDeterminism(t *testing.T) {
	t.Parallel()
	b, err := RunRollout(RolloutConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rolloutCampaign()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.BadEvents) != len(b.BadEvents) {
		t.Fatalf("bad-run event log lengths differ: %d vs %d", len(a.BadEvents), len(b.BadEvents))
	}
	for i := range a.BadEvents {
		if a.BadEvents[i] != b.BadEvents[i] {
			t.Fatalf("bad-run event %d differs: %v vs %v", i, a.BadEvents[i], b.BadEvents[i])
		}
	}
	if len(a.GoodEvents) != len(b.GoodEvents) {
		t.Fatalf("good-run event log lengths differ: %d vs %d", len(a.GoodEvents), len(b.GoodEvents))
	}
	for i := range a.GoodEvents {
		if a.GoodEvents[i] != b.GoodEvents[i] {
			t.Fatalf("good-run event %d differs: %v vs %v", i, a.GoodEvents[i], b.GoodEvents[i])
		}
	}
	for _, cmp := range []struct {
		name   string
		ra, rb string
	}{
		{"healthy", a.Healthy.Render(), b.Healthy.Render()},
		{"bad", a.Bad.Render(), b.Bad.Render()},
		{"good", a.Good.Render(), b.Good.Render()},
	} {
		if cmp.ra != cmp.rb {
			t.Errorf("same-seed %s snapshots differ:\n--- A ---\n%s\n--- B ---\n%s", cmp.name, cmp.ra, cmp.rb)
		}
	}
}

// TestRolloutBadPlanSpec: a malformed -rollout-plan spec fails fast.
func TestRolloutBadPlanSpec(t *testing.T) {
	if _, err := RunRollout(RolloutConfig{Plan: "bogus=1"}); err == nil {
		t.Error("malformed Plan accepted")
	}
	if _, err := RunRollout(RolloutConfig{Plan: "start=0.2,canary=1.5"}); err == nil {
		t.Error("out-of-range canary fraction accepted")
	}
}
