package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"tpusim/internal/fault"
	"tpusim/internal/tpu"
)

// specRoundTrip is the contract every plan parser keeps: a spec it accepts
// renders (String) to a spec it accepts again, and that rendering is a
// fixed point. A rejected spec is fine; a panic fails the fuzz run.
func specRoundTrip[P fmt.Stringer](parse func(string) (P, error), spec string) error {
	p, err := parse(spec)
	if err != nil {
		return nil
	}
	s := p.String()
	q, err := parse(s)
	if err != nil {
		return fmt.Errorf("Parse(%q) succeeds but its String %q does not parse: %v", spec, s, err)
	}
	if again := q.String(); again != s {
		return fmt.Errorf("String is not a fixed point for %q: %q then %q", spec, s, again)
	}
	return nil
}

// FuzzPlanSpecs runs every spec through the three plan parsers that share
// fault.SpecTerms. Seeds: the specs in bench/fleet_ops.go, the README and
// the golden chaos scenario, plus the malformed shapes the tokenizer sorts
// and the NaN / Inf spellings strconv accepts. A plan that parses must hold
// only finite numbers: a NaN slips past every range comparison, panics the
// calendar mid-run and silences a fault plan's draw. A fault plan that parses
// must also arm a hook whose stalls and stretched cycle counts never wrap
// negative (checkArmedHook).
func FuzzPlanSpecs(f *testing.F) {
	for _, seed := range []string{
		"seed=7,rate=0.02,flip-ub=0.01,slow=0.05,slowx=8,dead=0+2",
		"flip=ub@0x4d2.3+weights@65536.7",
		"zone-down=0@0.5,zone-up=0@0.8,part=4@0.55-0.7,slow=1x2.5@0.2,flap=3@0.1x4/0.05",
		"part=4@0.55-0.7,flap=5@0.9x2/0.1",
		"slow=1x2.5@1,zone-down=0@2,part=2@2.5-3.2,zone-up=0@4,flap=3@4.5x2/0.4",
		"start=0.2,factor=4,canary=0.1,windows=2,window=0.05,wave=2,drain=0.05",
		"start=0.5,shedtol=0.02,errtol=0.01",
		"", " , ,", "kill", "kill=", "=1", "a=b=c", "start=1,,wave", "seed=1, rate = 0.5 ,",
		"slow=6xNaN@0.3", "kill=0@nan", "part=0@NaN-0.5", "flap=0@0.1x2/+Inf", "start=NaN", "start=1,window=inf",
		"transient=NaN", "death=NaN,transient=0.5", "slowx=Inf", "hangms=Inf",
		"hang=1", "hang=1,hangms=1e300", "slow=1,slowx=1e300", "slow=1,slowx=1048576", "hang=1,hangms=1e-7",
	} {
		f.Add(seed)
	}
	parsers := []struct {
		name      string
		roundTrip func(spec string) error
	}{
		{"fault.ParsePlan", func(s string) error { return specRoundTrip(fault.ParsePlan, s) }},
		{"ParseChaosPlan", func(s string) error { return specRoundTrip(ParseChaosPlan, s) }},
		{"ParseRolloutPlan", func(s string) error { return specRoundTrip(ParseRolloutPlan, s) }},
	}
	f.Fuzz(func(t *testing.T, spec string) {
		for _, p := range parsers {
			if err := p.roundTrip(spec); err != nil {
				t.Errorf("%s: %v", p.name, err)
			}
		}
		if p, err := fault.ParsePlan(spec); err == nil {
			if !finite(p.TransientRate, p.SlowRate, p.HangRate, p.DeathRate, p.FlipUBRate, p.FlipWeightsRate,
				p.FlipAccRate, p.FlipPERate, p.SlowFactor, p.HangSeconds) {
				t.Errorf("fault.ParsePlan(%q) accepted a non-finite number: %s", spec, p)
			}
			checkArmedHook(t, spec, p)
		}
		if p, err := ParseChaosPlan(spec); err == nil {
			for _, a := range p.Actions {
				if !finite(a.At, a.Until, a.Factor, a.Period) {
					t.Errorf("ParseChaosPlan(%q) accepted a non-finite number in %s", spec, a)
				}
			}
		}
		if p, err := ParseRolloutPlan(spec); err == nil &&
			!finite(p.Start, p.Factor, p.CanaryFrac, p.WindowSeconds, p.DrainSeconds, p.ShedTol, p.ErrTol) {
			t.Errorf("ParseRolloutPlan(%q) accepted a non-finite number: %s", spec, p)
		}
	})
}

// checkArmedHook drives a plan's armed hook over a few runs of a device that
// reports runCycles, under a cancelled context so that no stall waits. A run
// that executed must come back with at least its own cycles: a stretch past
// int64's range wraps negative. A hang must not find its stall over at once
// (ErrHang under a cancelled context) unless the plan's stall is below a
// nanosecond: a stall past time.Duration's range wraps negative, and a
// negative stall is over at once.
func checkArmedHook(t *testing.T, spec string, p fault.Plan) {
	const runCycles = 1<<43 - 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	hook := p.Injector(0).ArmedHook()
	var ran bool
	inv := tpu.Invocation{Run: func() (tpu.Counters, error) {
		ran = true
		return tpu.Counters{Cycles: runCycles}, nil
	}}
	for range 8 {
		ran = false
		c, err := hook(ctx, inv)
		if c.Cycles < 0 || ran && c.Cycles < runCycles {
			t.Errorf("fault.ParsePlan(%q): a run of %d cycles came back with %d (err %v)", spec, int64(runCycles), c.Cycles, err)
		}
		if errors.Is(err, fault.ErrHang) && !(p.HangSeconds > 0 && p.HangSeconds < 1e-9) {
			t.Errorf("fault.ParsePlan(%q): a stall of %v s ended at once under a cancelled context", spec, p.HangSeconds)
		}
	}
}
