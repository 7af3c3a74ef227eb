// SDC campaign: a seeded bit-flip sweep over the paper's six benchmark
// apps that measures, end to end, what the integrity machinery is worth.
// Every trial injects one (kind, addr, bit) flip three times — into an
// integrity-off fleet to learn whether the flip corrupts the output at
// all, into a detect-tier fleet to see whether a check catches it before
// the answer ships, and into a detect+correct fleet to see whether the
// request still returns the bit-exact clean output. The campaign's two
// headline numbers are the detection rate over output-affecting flips
// (silent-data-corruption coverage) and the detect+correct bit-exactness
// rate (recovery fidelity).
package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"strings"

	"tpusim/internal/fault"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// SDCConfig configures one campaign over the six apps (tiny variants) on
// single-device fleets. The zero value injects 16 flips per app.
type SDCConfig struct {
	// FlipsPerApp is the number of injected flips per app, cycled over the
	// four upset kinds (UB, weight DRAM, accumulator, PE). 0 means 16;
	// negative is an error.
	FlipsPerApp int
	// Seed drives flip addresses/bits and weight init.
	Seed int64
}

func (c SDCConfig) normalized() SDCConfig {
	if c.FlipsPerApp == 0 {
		c.FlipsPerApp = 16
	}
	return c
}

// SDCApp is one app's campaign ledger. Benign+Affecting = Flips;
// Detected+Escaped = Affecting; CorrectExact+CorrectMiss = Affecting.
type SDCApp struct {
	App string
	// Flips is the number of injected trials.
	Flips int
	// Benign flips left the integrity-off output bit-identical (masked by
	// requantization, dead bytes, or overwritten state).
	Benign int
	// Affecting flips changed the integrity-off output: true SDC material.
	Affecting int
	// Detected counts affecting flips the detect tier caught (a check fired
	// or the attempt failed with a detected-SDC error).
	Detected int
	// Escaped counts affecting flips the detect tier shipped silently —
	// the output was wrong and no check noticed.
	Escaped int
	// Recovered counts affecting flips where the detect tier's final answer
	// was bit-exact (recovery ladder: scrub, retry, failover).
	Recovered int
	// CorrectExact / CorrectMiss count affecting flips where detect+correct
	// did / did not return the bit-exact clean output.
	CorrectExact int
	CorrectMiss  int
}

func (a *SDCApp) add(o SDCApp) {
	a.Flips += o.Flips
	a.Benign += o.Benign
	a.Affecting += o.Affecting
	a.Detected += o.Detected
	a.Escaped += o.Escaped
	a.Recovered += o.Recovered
	a.CorrectExact += o.CorrectExact
	a.CorrectMiss += o.CorrectMiss
}

// SDCResult is the whole campaign.
type SDCResult struct {
	Config SDCConfig
	Apps   []SDCApp
	// Total aggregates every app.
	Total SDCApp
	// DetectLedger and CorrectLedger are the device integrity ledgers
	// accumulated across the campaign's detect and detect+correct fleets.
	DetectLedger  tpu.IntegrityStats
	CorrectLedger tpu.IntegrityStats
}

// DetectionRate is detected / affecting over the whole campaign — the
// SDC-coverage headline. 1.0 when nothing affecting was injected.
func (r *SDCResult) DetectionRate() float64 {
	if r.Total.Affecting == 0 {
		return 1
	}
	return float64(r.Total.Detected) / float64(r.Total.Affecting)
}

// CorrectRate is detect+correct bit-exact answers / affecting flips.
func (r *SDCResult) CorrectRate() float64 {
	if r.Total.Affecting == 0 {
		return 1
	}
	return float64(r.Total.CorrectExact) / float64(r.Total.Affecting)
}

// sdcKinds is the injection rotation: one upset kind per trial, cycling
// through every guarded structure.
var sdcKinds = []fault.Kind{
	fault.KindFlipUB, fault.KindFlipWeights, fault.KindFlipAcc, fault.KindFlipPE,
}

// sdcFleet is one tier's server plus the clean reference it must match.
type sdcFleet struct {
	srv *runtime.Server
}

func newSDCFleet(tier tpu.IntegrityLevel, seed int64) (*sdcFleet, error) {
	srv, err := runtime.NewServerWith(1, tpu.DefaultConfig(), runtime.ServerOptions{
		Faults: &fault.Plan{Seed: seed},
		Resilience: &runtime.Resilience{
			MaxAttempts: 3,
			ProbeEvery:  -1, // no quarantine-probe goroutine churn
			Integrity:   tier,
		},
	})
	if err != nil {
		return nil, err
	}
	// A campaign injects hundreds of failures on purpose; routing the
	// health machine's WARN stream to the console would bury the report.
	srv.Observe(nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	return &sdcFleet{srv: srv}, nil
}

// sdcAddr draws a flip address. The device maps raw draws into each
// structure's live extent, but the live extent is the full 256-wide tile
// geometry and the tiny campaign models only occupy its low corner — a
// uniform draw lands ~99% of trials in padding whose corruption is
// architecturally benign. Three of four draws therefore target the low
// corner (rows/lanes/columns the apps actually consume); the fourth stays
// full-range so padding coverage is still exercised.
func sdcAddr(rng *rand.Rand, kind fault.Kind) uint64 {
	if rng.Intn(4) == 0 {
		return rng.Uint64()
	}
	switch kind {
	case fault.KindFlipUB:
		// Row-major 256-byte rows: early rows, early columns.
		return uint64(rng.Intn(8))*256 + uint64(rng.Intn(24))
	case fault.KindFlipWeights:
		// First tile's low corner: early weight rows, early output columns.
		return uint64(rng.Intn(16))*256 + uint64(rng.Intn(24))
	case fault.KindFlipAcc:
		// Low (addr, lane-byte) products decode to live registers/lanes.
		return uint64(rng.Intn(384))
	default: // KindFlipPE
		// Low draws decode to live (row, column) pairs for any row count.
		return uint64(rng.Intn(128))
	}
}

// sdcBit draws a bit position for a flip. The draw covers the whole bit
// range but is weighted toward the high-order quarter: requantization to
// int8 masks most low-bit upsets, and a campaign whose trials are nearly
// all benign measures nothing. Both biases only concentrate trials on
// output-affecting upsets — detection rates are computed over the
// affecting subset, so they do not inflate the headline numbers.
func sdcBit(rng *rand.Rand, kind fault.Kind) uint8 {
	width := 8
	if kind == fault.KindFlipPE {
		width = 32
	}
	if rng.Intn(4) != 0 {
		return uint8(width - 1 - rng.Intn(width/4))
	}
	return uint8(rng.Intn(width))
}

// RunSDC executes the campaign: for each app, one integrity-off, one
// detect and one detect+correct single-device fleet see the identical
// deterministic flip sequence (see sdcAddr/sdcBit for how draws are
// weighted toward bytes the apps actually consume). Everything is a pure
// function of the seed, so a campaign replays exactly.
func RunSDC(cfg SDCConfig) (*SDCResult, error) {
	cfg = cfg.normalized()
	if cfg.FlipsPerApp < 0 {
		return nil, fmt.Errorf("experiments: sdc FlipsPerApp is %d, want >= 0", cfg.FlipsPerApp)
	}
	return runSDC(cfg, models.Names())
}

// runSDC is RunSDC's campaign over the named apps.
func runSDC(cfg SDCConfig, names []string) (*SDCResult, error) {
	res := &SDCResult{Config: cfg, Total: SDCApp{App: "total"}}
	ctx := context.Background()
	for i, name := range names {
		m, err := models.Tiny(name)
		if err != nil {
			return nil, err
		}
		params := nn.InitRandom(m, cfg.Seed+int64(i)+1, 0.25)
		in := sdcInput(m, cfg.Seed*100+int64(i))

		tiers := make([]*sdcFleet, 3)
		for t, tier := range []tpu.IntegrityLevel{tpu.IntegrityOff, tpu.IntegrityDetect, tpu.IntegrityCorrect} {
			f, err := newSDCFleet(tier, cfg.Seed+int64(i))
			if err != nil {
				return nil, err
			}
			defer f.srv.Close()
			tiers[t] = f
		}
		off, det, cor := tiers[0], tiers[1], tiers[2]

		// Clean warm run on every tier compiles the model and pins the
		// reference output all recovery paths must reproduce.
		ref, err := off.srv.RunCtx(ctx, m, params, in)
		if err != nil {
			return nil, fmt.Errorf("sdc: %s clean reference: %w", name, err)
		}
		for _, f := range []*sdcFleet{det, cor} {
			r, err := f.srv.RunCtx(ctx, m, params, in)
			if err != nil {
				return nil, fmt.Errorf("sdc: %s clean warmup: %w", name, err)
			}
			if !sdcEqual(r.Output, ref.Output) {
				return nil, fmt.Errorf("sdc: %s clean outputs disagree across tiers", name)
			}
		}

		app := SDCApp{App: name}
		rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(i)))
		for t := 0; t < cfg.FlipsPerApp; t++ {
			kind := sdcKinds[t%len(sdcKinds)]
			addr := sdcAddr(rng, kind)
			bit := sdcBit(rng, kind)
			app.Flips++

			// Tier off: does this flip corrupt the shipped output at all?
			if err := off.srv.Injectors()[0].FlipOnce(kind, addr, bit); err != nil {
				return nil, err
			}
			offOut, err := off.srv.RunCtx(ctx, m, params, in)
			if err != nil {
				return nil, fmt.Errorf("sdc: %s off-tier run: %w", name, err)
			}
			affecting := !sdcEqual(offOut.Output, ref.Output)
			if kind == fault.KindFlipWeights {
				// Weight-DRAM corruption is persistent; repair the off
				// fleet from its golden image before the next trial.
				off.srv.Scrub(ctx)
			}

			// Tier detect: inject the identical flip, watch the ledgers.
			preChk := det.srv.IntegrityStats().Detected
			preSDC := det.srv.ResilienceStats().SDCFailures
			if err := det.srv.Injectors()[0].FlipOnce(kind, addr, bit); err != nil {
				return nil, err
			}
			detOut, detErr := det.srv.RunCtx(ctx, m, params, in)
			detected := det.srv.IntegrityStats().Detected > preChk ||
				det.srv.ResilienceStats().SDCFailures > preSDC
			if kind == fault.KindFlipWeights {
				det.srv.Scrub(ctx)
			}

			// Tier detect+correct: same flip, the answer must be clean.
			if err := cor.srv.Injectors()[0].FlipOnce(kind, addr, bit); err != nil {
				return nil, err
			}
			corRes, corErr := cor.srv.RunCtx(ctx, m, params, in)
			if kind == fault.KindFlipWeights {
				cor.srv.Scrub(ctx)
			}

			if !affecting {
				app.Benign++
				continue
			}
			app.Affecting++
			if detected {
				app.Detected++
			} else {
				app.Escaped++
			}
			if detErr == nil && sdcEqual(detOut.Output, ref.Output) {
				app.Recovered++
			}
			if corErr == nil && sdcEqual(corRes.Output, ref.Output) {
				app.CorrectExact++
			} else {
				app.CorrectMiss++
			}
		}
		res.DetectLedger.Add(det.srv.IntegrityStats())
		res.CorrectLedger.Add(cor.srv.IntegrityStats())
		res.Apps = append(res.Apps, app)
		res.Total.add(app)
	}
	return res, nil
}

// sdcInput builds the app's batch input with the geometry the runtime
// backend expects (conv models keep (batch, H, W, Cin)).
func sdcInput(m *nn.Model, seed int64) *tensor.F32 {
	in := tensor.NewF32(m.BatchInputShape()...)
	in.FillRandom(seed, 1)
	return in
}

// sdcEqual is bit-exact output equality.
func sdcEqual(a, b *tensor.F32) bool {
	if a == nil || b == nil || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// RenderSDC formats the campaign ledger.
func RenderSDC(r *SDCResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SDC campaign: %d apps x %d flips (ub/weights/acc/pe), seed %d\n\n",
		len(r.Apps), r.Config.FlipsPerApp, r.Config.Seed)
	fmt.Fprintf(&b, "%-8s %6s %7s %10s %9s %8s %10s %12s\n",
		"app", "flips", "benign", "affecting", "detected", "escaped", "recovered", "correct-exact")
	rows := append(append([]SDCApp{}, r.Apps...), r.Total)
	for _, a := range rows {
		fmt.Fprintf(&b, "%-8s %6d %7d %10d %9d %8d %10d %12d\n",
			a.App, a.Flips, a.Benign, a.Affecting, a.Detected, a.Escaped, a.Recovered, a.CorrectExact)
	}
	fmt.Fprintf(&b, "\ndetection rate over affecting flips: %.2f%%\n", r.DetectionRate()*100)
	fmt.Fprintf(&b, "detect+correct bit-exact rate:       %.2f%%\n", r.CorrectRate()*100)
	fmt.Fprintf(&b, "detect ledger:  %+v\n", r.DetectLedger)
	fmt.Fprintf(&b, "correct ledger: %+v\n", r.CorrectLedger)
	return b.String()
}
