package experiments

import (
	"context"
	"io"
	"log/slog"
	"slices"
	"strings"
	"testing"

	"tpusim/internal/fault"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/tpu"
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

// TestEveryFaultKindAccounted is the closed world of fault kinds. It walks
// fault.Kind by name until String reports kind(n), so a new kind joins the
// walk without editing a list. Every kind is either a flip that
// FlipTargetFor maps and RunSDC rotates through (sdcKinds), so a check
// watches it and the campaign ledgers what escapes, or has a row below that
// injects it on every run of a one-device server at IntegrityDetect and
// sees each run fail or return the fault-free output bit for bit. A kind in
// neither class could change an answer where nothing counts it, and fails.
func TestEveryFaultKindAccounted(t *testing.T) {
	rows := map[fault.Kind]fault.Plan{
		fault.KindDead:      {DeathRate: 1},
		fault.KindHang:      {HangRate: 1, HangSeconds: 1e-3},
		fault.KindTransient: {TransientRate: 1},
		fault.KindSlow:      {SlowRate: 1, SlowFactor: 2},
	}
	ctx := context.Background()
	m, err := models.Tiny("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	params, in := nn.InitRandom(m, 1, 0.25), sdcInput(m, 1)
	server := func(plan *fault.Plan) *runtime.Server {
		srv, err := runtime.NewServerWith(1, tpu.DefaultConfig(), runtime.ServerOptions{
			Faults:     plan,
			Resilience: &runtime.Resilience{ProbeEvery: -1, HedgeAfterP99: -1, Integrity: tpu.IntegrityDetect},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Observe(nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
		t.Cleanup(srv.Close)
		return srv
	}
	ref, err := server(nil).RunCtx(ctx, m, params, in)
	if err != nil {
		t.Fatal(err)
	}
	for k := fault.KindNone + 1; !strings.HasPrefix(k.String(), "kind("); k++ {
		_, flip := fault.FlipTargetFor(k)
		if flip && slices.Contains(sdcKinds, k) {
			continue
		}
		plan, ok := rows[k]
		if !ok {
			t.Errorf("fault kind %v is neither a flip RunSDC ledgers nor a row that fails the run or leaves its answer exact", k)
			continue
		}
		plan.Seed = 1
		srv := server(&plan)
		for i := 0; i < 4; i++ {
			r, err := srv.RunCtx(ctx, m, params, in)
			if err == nil && !sdcEqual(r.Output, ref.Output) {
				t.Errorf("%v at rate 1, run %d: served an answer that differs from the fault-free one", k, i)
			}
		}
		if srv.Injectors()[0].Counts()[k.String()] == 0 {
			t.Errorf("%v at rate 1 was never injected", k)
		}
	}
}
