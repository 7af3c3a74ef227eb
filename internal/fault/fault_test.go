package fault

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tpusim/internal/tpu"
)

// drive runs the injector's hook n times against a trivial always-succeeds
// run and returns the per-run fault kinds (KindNone for untouched runs). A
// run is classified by its error, by the flip it injected through the
// Inject seam, or by its stretched cycle count.
func drive(t *testing.T, in *Injector, n int) []Kind {
	t.Helper()
	hook := in.ArmedHook()
	kinds := make([]Kind, 0, n)
	for i := 0; i < n; i++ {
		flipped := KindNone
		c, err := hook(context.Background(), tpu.Invocation{
			Run:    func() (tpu.Counters, error) { return tpu.Counters{Cycles: 1000}, nil },
			Inject: func(f tpu.Flip) { flipped = flipKind(t, f.Target) },
		})
		switch {
		case errors.Is(err, ErrDeviceDead):
			kinds = append(kinds, KindDead)
		case errors.Is(err, ErrHang):
			kinds = append(kinds, KindHang)
		case errors.Is(err, ErrTransient):
			kinds = append(kinds, KindTransient)
		case err != nil:
			t.Fatalf("run %d: unexpected error %v", i, err)
		case flipped != KindNone:
			kinds = append(kinds, flipped)
		case c.Cycles > 1000:
			kinds = append(kinds, KindSlow)
		default:
			kinds = append(kinds, KindNone)
		}
	}
	return kinds
}

// flipKind is the rate kind whose flips land in target.
func flipKind(t *testing.T, target tpu.FlipTarget) Kind {
	for k := KindNone; k < kindCount; k++ {
		if tgt, ok := FlipTargetFor(k); ok && tgt == target {
			return k
		}
	}
	t.Fatalf("no kind flips %v", target)
	return KindNone
}

// chaosPlan is the reference plan for the determinism tests: every random
// failure mode enabled at once, plus one flip kind.
func chaosPlan(seed int64) Plan {
	return Plan{
		Seed:          seed,
		TransientRate: 0.15,
		FlipUBRate:    0.1,
		SlowRate:      0.1,
		HangRate:      0.05,
		DeathRate:     0.02,
		SlowFactor:    4,
		HangSeconds:   1e-3,
	}
}

// TestInjectorDeterministic pins the acceptance criterion: the same chaos
// seed yields the same injected-fault sequence.
func TestInjectorDeterministic(t *testing.T) {
	const runs = 200
	a := drive(t, chaosPlan(7).Injector(0), runs)
	b := drive(t, chaosPlan(7).Injector(0), runs)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n a=%v\n b=%v", a, b)
	}
	// The observed kinds match the injector's own event log (modulo
	// KindNone, which is not logged, and dead-run repeats).
	in := chaosPlan(7).Injector(0)
	got := drive(t, in, runs)
	var fromLog []Kind
	for _, e := range in.Events() {
		fromLog = append(fromLog, e.Kind)
	}
	var observed []Kind
	for _, k := range got {
		if k != KindNone && k != KindDead {
			observed = append(observed, k)
		}
	}
	// Death appears in the log exactly once even though every later run
	// observes KindDead.
	deaths := 0
	for _, k := range got {
		if k == KindDead {
			deaths++
		}
	}
	var wantLog []Kind
	dead := false
	for _, k := range got {
		if dead {
			break
		}
		if k == KindDead {
			wantLog = append(wantLog, KindDead)
			dead = true
		} else if k != KindNone {
			wantLog = append(wantLog, k)
		}
	}
	if !reflect.DeepEqual(fromLog, wantLog) {
		t.Errorf("event log %v does not match observed sequence %v", fromLog, wantLog)
	}
	_ = observed
	// Different seeds give different sequences; different devices of the
	// same plan draw independent streams.
	c := drive(t, chaosPlan(8).Injector(0), runs)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical fault sequences")
	}
	d := drive(t, chaosPlan(7).Injector(1), runs)
	if reflect.DeepEqual(a, d) {
		t.Error("different devices produced identical fault sequences")
	}
	// At these rates, 200 runs inject at least one of everything but death
	// with overwhelming probability; assert the plumbing fired at all.
	seen := map[Kind]bool{}
	for _, k := range a {
		seen[k] = true
	}
	for _, k := range []Kind{KindTransient, KindFlipUB, KindSlow} {
		if !seen[k] {
			t.Errorf("no %v injected in %d runs", k, runs)
		}
	}
}

func TestInjectorRates(t *testing.T) {
	const runs = 4000
	in := Plan{Seed: 3, TransientRate: 0.25}.Injector(0)
	kinds := drive(t, in, runs)
	faults := 0
	for _, k := range kinds {
		if k == KindTransient {
			faults++
		}
	}
	frac := float64(faults) / runs
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("transient rate 0.25 injected %.3f of runs", frac)
	}
	if got := in.Counts()["transient"]; got != int64(faults) {
		t.Errorf("Counts()=%d, observed %d", got, faults)
	}
}

// TestEventLogBounded: the event log keeps the first maxEvents faults and
// stops, while Counts keeps counting every one, so a long chaos run's
// injector does not grow.
func TestEventLogBounded(t *testing.T) {
	const runs = maxEvents + 100
	in := Plan{Seed: 4, TransientRate: 1}.Injector(0)
	drive(t, in, runs)
	ev := in.Events()
	if len(ev) != 4096 || maxEvents != 4096 {
		t.Fatalf("event log holds %d events (maxEvents %d), want 4096", len(ev), maxEvents)
	}
	if last := ev[len(ev)-1]; last.Seq != maxEvents-1 || last.Kind != KindTransient {
		t.Errorf("last logged event %+v, want run %d's transient", last, maxEvents-1)
	}
	if got := in.Counts()["transient"]; got != runs {
		t.Errorf("Counts()[transient] = %d, want %d", got, runs)
	}
}

func TestDeadDeviceAndRevive(t *testing.T) {
	p := Plan{Seed: 1, DeadDevices: []int{2}}
	in := p.Injector(2)
	hook := in.ArmedHook()
	_, err := hook(context.Background(), tpu.Invocation{
		Run: func() (tpu.Counters, error) { return tpu.Counters{}, nil },
	})
	if !errors.Is(err, ErrDeviceDead) || !Injected(err) {
		t.Fatalf("dead device ran: err=%v", err)
	}
	in.Revive()
	if _, err := hook(context.Background(), tpu.Invocation{
		Run: func() (tpu.Counters, error) { return tpu.Counters{}, nil },
	}); err != nil {
		t.Fatalf("revived device still failing: %v", err)
	}
	// Other devices of the same plan are untouched (plan only marks dev 2
	// dead).
	other := p.Injector(0)
	if _, err := other.ArmedHook()(context.Background(), tpu.Invocation{
		Run: func() (tpu.Counters, error) { return tpu.Counters{}, nil },
	}); err != nil {
		t.Fatalf("healthy device failed: %v", err)
	}
	// Kill mid-flight.
	other.Kill()
	if _, err := other.ArmedHook()(context.Background(), tpu.Invocation{
		Run: func() (tpu.Counters, error) { return tpu.Counters{}, nil },
	}); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("killed device kept running: err=%v", err)
	}
}

func TestStaticSlowScalesCyclesAndWall(t *testing.T) {
	in := Plan{Seed: 1, SlowDevices: []int{0}, SlowFactor: 3}.Injector(0)
	hook := in.ArmedHook()
	c, err := hook(context.Background(), tpu.Invocation{
		Run: func() (tpu.Counters, error) {
			time.Sleep(time.Millisecond)
			return tpu.Counters{Cycles: 700}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cycles != 2100 {
		t.Errorf("cycles %d, want 3x700", c.Cycles)
	}
}

func TestHangHonoursContext(t *testing.T) {
	in := Plan{Seed: 2, HangRate: 1, HangSeconds: 10}.Injector(0)
	hook := in.ArmedHook()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := hook(ctx, tpu.Invocation{
		Run: func() (tpu.Counters, error) { return tpu.Counters{}, nil },
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hang ignored context: stalled %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cancelled hang returned %v, want ctx error", err)
	}
}

func TestCompileErrFailsFirstN(t *testing.T) {
	in := Plan{Seed: 1, FailCompiles: 2}.Injector(0)
	for i := 0; i < 2; i++ {
		if err := in.CompileErr(); !errors.Is(err, ErrCompile) {
			t.Fatalf("compile %d: err=%v, want ErrCompile", i, err)
		}
	}
	if err := in.CompileErr(); err != nil {
		t.Fatalf("compile 3 should succeed: %v", err)
	}
}

// TestZeroPlanIsFree: a zero-rate plan's armed hook passes every run
// through untouched and counts nothing.
func TestZeroPlanIsFree(t *testing.T) {
	in := Plan{Seed: 9}.Injector(0)
	for i, k := range drive(t, in, 1000) {
		if k != KindNone {
			t.Fatalf("run %d: zero-rate plan injected %v", i, k)
		}
	}
	if got := in.Counts(); len(got) != 0 {
		t.Errorf("zero-rate plan counted faults %v", got)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	spec := "seed=7,transient=0.05,flip-ub=0.01,slow=0.02,hang=0.01,death=0.001,slowx=8,hangms=50,compile=2,dead=0+2,slowdev=1"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed: 7, TransientRate: 0.05, FlipUBRate: 0.01, SlowRate: 0.02,
		HangRate: 0.01, DeathRate: 0.001, SlowFactor: 8, HangSeconds: 0.05,
		FailCompiles: 2, DeadDevices: []int{0, 2}, SlowDevices: []int{1},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	// String renders a spec that parses back to the same plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("round trip parse: %v", err)
	}
	if !reflect.DeepEqual(p2, p) {
		t.Fatalf("round trip %+v, want %+v", p2, p)
	}
	// rate= is shorthand for transient=.
	p3, err := ParsePlan("rate=0.5")
	if err != nil || p3.TransientRate != 0.5 {
		t.Fatalf("rate shorthand: %+v, %v", p3, err)
	}
	// Empty spec is the default plan.
	if p4, err := ParsePlan(""); err != nil || p4.Seed != 1 {
		t.Fatalf("empty spec: %+v, %v", p4, err)
	}
	for _, bad := range []string{"nope", "wat=1", "transient=x", "transient=2", "slowx=0.5", "dead=a"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	// A fault reaches a device only through a seam its checks watch; there
	// is no host-buffer corruption kind.
	if _, err := ParsePlan("seed=1,corrupt=0.3"); err == nil || !strings.Contains(err.Error(), `unknown key "corrupt"`) {
		t.Errorf("corrupt= spec: err=%v, want unknown key", err)
	}
}

// TestParsePlanRejectsNonFinite: every rate, the slow factor and the hang
// stall must be finite, and the last two inside what their int64 results
// can hold. A NaN rate passes each range comparison and makes the rates' sum
// NaN (so the injector draws nothing), and a slow factor or stall past the
// bound wraps the stretched cycle count or the stall negative.
func TestParsePlanRejectsNonFinite(t *testing.T) {
	for _, spec := range []string{
		"transient=NaN", "rate=nan", "slow=NaN", "hang=+Inf", "death=NaN,transient=0.5",
		"flip-ub=NaN", "flip-weights=Inf", "flip-acc=-Inf", "flip-pe=nan",
		"slowx=Inf", "slowx=+Inf", "slowx=NaN", "slowx=-Inf",
		"hangms=Inf", "hangms=NaN", "hangms=-Inf",
		// Finite but past int64's range once converted: the stall would wrap
		// negative, and so would the stretched cycle count.
		"hang=1,hangms=1e300", "slow=1,slowx=1e300",
	} {
		if p, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted as %+v", spec, p)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{TransientRate: 0.6, SlowRate: 0.6}).Validate(); err == nil {
		t.Error("rates summing past 1 accepted")
	}
	if err := (Plan{HangSeconds: -1}).Validate(); err == nil {
		t.Error("negative hang accepted")
	}
	if err := (Plan{FailCompiles: -1}).Validate(); err == nil {
		t.Error("negative compile count accepted")
	}
}

func TestSummary(t *testing.T) {
	plan := Plan{Seed: 1, TransientRate: 1}
	injs := []*Injector{plan.Injector(0), plan.Injector(1)}
	drive(t, injs[1], 3)
	s := Summary(injs)
	if !strings.Contains(s, "device 1: transient=3") {
		t.Errorf("summary missing counts:\n%s", s)
	}
	if strings.Contains(s, "device 0") {
		t.Errorf("summary includes fault-free device:\n%s", s)
	}
}

func TestKindString(t *testing.T) {
	if KindSlow.String() != "slow" || Kind(99).String() == "" {
		t.Error("kind names broken")
	}
}

// flipDrive runs n invocations against an injector, collecting every flip
// the hook injects through the Invocation.Inject seam.
func flipDrive(t *testing.T, in *Injector, n int) []tpu.Flip {
	t.Helper()
	hook := in.ArmedHook()
	var flips []tpu.Flip
	for i := 0; i < n; i++ {
		_, err := hook(context.Background(), tpu.Invocation{
			Run:    func() (tpu.Counters, error) { return tpu.Counters{Cycles: 1}, nil },
			Inject: func(f tpu.Flip) { flips = append(flips, f) },
		})
		if err != nil && !errors.Is(err, ErrTransient) && !errors.Is(err, ErrHang) && !errors.Is(err, ErrDeviceDead) {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	return flips
}

func TestParsePlanFlipKinds(t *testing.T) {
	spec := "seed=5,flip-ub=0.01,flip-weights=0.02,flip-acc=0.03,flip-pe=0.04,flip=ub@0x4d2.3+weights@65536.7"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{
		Seed: 5, FlipUBRate: 0.01, FlipWeightsRate: 0.02,
		FlipAccRate: 0.03, FlipPERate: 0.04,
		TargetedFlips: []TargetedFlip{
			{Kind: KindFlipUB, Addr: 0x4d2, Bit: 3},
			{Kind: KindFlipWeights, Addr: 65536, Bit: 7},
		},
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	// String renders a spec that parses back to the same plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p2, p) {
		t.Fatalf("round trip %+v, want %+v", p2, p)
	}
	// Malformed targeted flips fail with useful errors.
	for spec, wantSub := range map[string]string{
		"flip=ub":          "want kind@addr.bit",
		"flip=xyz@1.2":     "unknown target",
		"flip=ub@1":        "missing .bit",
		"flip=ub@zz.3":     "bad address",
		"flip=ub@1.99":     "bad bit",
		"flip=ub@-4.2":     "bad address",
		"flip-ub=2":        "outside [0, 1]",
		"flip=acc@1.2+bad": "want kind@addr.bit",
	} {
		_, err := ParsePlan(spec)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("spec %q: error %q does not mention %q", spec, err, wantSub)
		}
	}
}

// TestFlipSeedReproducible pins satellite 2: the same seed reproduces the
// identical (Seq, Kind, Addr) event log and the identical injected flips.
func TestFlipSeedReproducible(t *testing.T) {
	plan := Plan{
		Seed: 11, FlipUBRate: 0.1, FlipWeightsRate: 0.1,
		FlipAccRate: 0.1, FlipPERate: 0.1,
		TargetedFlips: []TargetedFlip{{Kind: KindFlipPE, Addr: 42, Bit: 9}},
	}
	const runs = 100
	a, b := plan.Injector(0), plan.Injector(0)
	fa, fb := flipDrive(t, a, runs), flipDrive(t, b, runs)
	if !reflect.DeepEqual(fa, fb) {
		t.Fatalf("same seed injected different flips:\n a=%v\n b=%v", fa, fb)
	}
	if len(fa) == 0 {
		t.Fatal("no flips injected in 100 runs at these rates")
	}
	if fa[0] != (tpu.Flip{Target: tpu.FlipPE, Addr: 42, Bit: 9}) {
		t.Fatalf("targeted flip not injected first: %v", fa[0])
	}
	ea, eb := a.Events(), b.Events()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("same seed produced different event logs:\n a=%v\n b=%v", ea, eb)
	}
	// Every flip event carries the raw address draw; replaying it as a
	// targeted flip reproduces the same device-visible flip.
	if ea[0].Kind != KindFlipPE || ea[0].Addr != 42 {
		t.Fatalf("event 0 = %+v, want the targeted pe@42 flip", ea[0])
	}
	flipEvents := 0
	for _, e := range ea {
		if _, ok := FlipTargetFor(e.Kind); ok {
			flipEvents++
		}
	}
	if flipEvents != len(fa) {
		t.Fatalf("%d flip events logged, %d flips injected", flipEvents, len(fa))
	}
	// A different seed draws a different sequence.
	c := plan
	c.Seed = 12
	if fc := flipDrive(t, c.Injector(0), runs); reflect.DeepEqual(fa, fc) {
		t.Error("different seeds injected identical flip sequences")
	}
}

// TestFlipOnce pins the chaos-script primitive: a queued flip lands on the
// next executing run exactly once, and is logged.
func TestFlipOnce(t *testing.T) {
	in := (Plan{Seed: 3}).Injector(0)
	if err := in.FlipOnce(KindFlipWeights, 4096, 7); err != nil {
		t.Fatal(err)
	}
	if err := in.FlipOnce(KindSlow, 0, 0); err == nil {
		t.Error("FlipOnce accepted a non-flip kind")
	}
	if err := in.FlipOnce(KindFlipUB, 1, 40); err == nil {
		t.Error("FlipOnce accepted bit 40")
	}
	flips := flipDrive(t, in, 3)
	want := []tpu.Flip{{Target: tpu.FlipWeights, Addr: 4096, Bit: 7}}
	if !reflect.DeepEqual(flips, want) {
		t.Fatalf("flips = %v, want %v", flips, want)
	}
	if got := in.Counts()["flip-weights"]; got != 1 {
		t.Fatalf("Counts()[flip-weights] = %d, want 1", got)
	}
}

// TestSpecTerms pins the tokenizer the three plan parsers share: terms are
// trimmed, empty ones skipped, a value keeps any later '=', and the first
// term without '=' ends the walk and is handed back with the pairs before
// it — which is what lets a parser report an unknown key at position one
// ahead of a malformed term at position two.
func TestSpecTerms(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		pairs [][2]string
		bad   string
	}{
		{"", nil, ""},
		{" , ,", nil, ""},
		{"a=1", [][2]string{{"a", "1"}}, ""},
		{" a=1 ,, b = 2 ,", [][2]string{{"a", "1"}, {"b ", " 2"}}, ""},
		{"a=b=c,=x,y=", [][2]string{{"a", "b=c"}, {"", "x"}, {"y", ""}}, ""},
		{"a=1, oops ,b=2", [][2]string{{"a", "1"}}, "oops"},
		{"oops", nil, "oops"},
	} {
		pairs, bad := SpecTerms(tc.spec)
		if !slices.Equal(pairs, tc.pairs) || bad != tc.bad {
			t.Errorf("SpecTerms(%q) = %q, %q; want %q, %q", tc.spec, pairs, bad, tc.pairs, tc.bad)
		}
	}
	_, err := ParsePlan("nope=1,oops")
	if err == nil || !strings.Contains(err.Error(), `unknown key "nope"`) {
		t.Errorf("errors are not reported in spec order: %v", err)
	}
	_, err = ParsePlan("seed=3,oops")
	if err == nil || !strings.Contains(err.Error(), `want key=value, got "oops"`) {
		t.Errorf("malformed term: %v", err)
	}
}
