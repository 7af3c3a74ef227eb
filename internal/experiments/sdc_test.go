package experiments

import (
	"strings"
	"testing"
)

// TestSDCCampaignAcceptance pins the PR's headline robustness numbers over
// the six-app campaign: every output-affecting flip is caught by the
// detect tier before the answer ships (>= 99% coverage), the detect
// tier's recovery ladder returns the bit-exact clean output for every
// detected flip, and the detect+correct tier restores bit-exact outputs
// outright. The campaign is a pure function of its seed, so these are
// deterministic assertions, not statistical ones.
func TestSDCCampaignAcceptance(t *testing.T) {
	cfg := SDCConfig{Seed: 11}
	if testing.Short() || raceEnabled {
		// The campaign is ~500 device runs; short mode and the race
		// detector's 5-10x slowdown both get a thinner sweep.
		cfg.FlipsPerApp = 8
	}
	r, err := RunSDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + RenderSDC(r))
	if len(r.Apps) != 6 {
		t.Fatalf("campaign covered %d apps, want 6", len(r.Apps))
	}
	if r.Total.Flips != 6*cfg.normalized().FlipsPerApp {
		t.Errorf("total flips = %d", r.Total.Flips)
	}
	// Enough output-affecting material for the coverage claim to mean
	// something (the seeded draws make this deterministic).
	if r.Total.Affecting < 8 {
		t.Errorf("only %d output-affecting flips; the campaign is underpowered", r.Total.Affecting)
	}
	if got := r.DetectionRate(); got < 0.99 {
		t.Errorf("detect tier caught %.2f%% of output-affecting flips, want >= 99%%: %d escaped",
			got*100, r.Total.Escaped)
	}
	if r.Total.Recovered != r.Total.Detected {
		t.Errorf("detect tier recovered %d of %d detected flips bit-exactly",
			r.Total.Recovered, r.Total.Detected)
	}
	if r.Total.CorrectMiss != 0 {
		t.Errorf("detect+correct missed bit-exactness on %d affecting flips", r.Total.CorrectMiss)
	}
	if got := r.CorrectRate(); got != 1 {
		t.Errorf("detect+correct bit-exact rate = %.4f, want 1", got)
	}
	// The ledgers prove the tiers did what their names say: detect fired
	// checks and leaned on scrub+retry (weights repairs from golden),
	// correct repaired in place.
	if r.DetectLedger.Detected == 0 || r.DetectLedger.ScrubRepairs == 0 {
		t.Errorf("detect ledger shows no detection/scrub activity: %+v", r.DetectLedger)
	}
	if r.CorrectLedger.Corrected+r.CorrectLedger.Recomputed == 0 {
		t.Errorf("correct ledger shows no in-place repairs: %+v", r.CorrectLedger)
	}
	// Ledger partition sanity per app.
	for _, a := range r.Apps {
		if a.Benign+a.Affecting != a.Flips {
			t.Errorf("%s: benign %d + affecting %d != flips %d", a.App, a.Benign, a.Affecting, a.Flips)
		}
		if a.Detected+a.Escaped != a.Affecting {
			t.Errorf("%s: detected %d + escaped %d != affecting %d", a.App, a.Detected, a.Escaped, a.Affecting)
		}
	}
	out := RenderSDC(r)
	for _, want := range []string{"detection rate", "bit-exact rate", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestSDCCampaignReplays pins the replayability contract: the same seed
// yields the identical ledger.
func TestSDCCampaignReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg, apps := SDCConfig{Seed: 23, FlipsPerApp: 4}, []string{"MLP0", "CNN0"}
	a, err := runSDC(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSDC(cfg, apps)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total {
		t.Errorf("same seed, different ledgers:\n%+v\n%+v", a.Total, b.Total)
	}
}

// TestRunSDCRejectsNegativeFlips: a negative flip count fails the campaign
// instead of reporting a 0-flip sweep at a 100% detection rate.
func TestRunSDCRejectsNegativeFlips(t *testing.T) {
	if _, err := RunSDC(SDCConfig{FlipsPerApp: -2}); err == nil || !strings.Contains(err.Error(), "FlipsPerApp") {
		t.Errorf("FlipsPerApp = -2: got error %v, want one naming the field", err)
	}
}
