package runtime

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tpusim/internal/compiler"
	"tpusim/internal/fault"
	"tpusim/internal/tpu"
)

// newChaosServer builds an n-device server with the given plan and a fast
// probing/retry policy suitable for tests.
func newChaosServer(t *testing.T, n int, plan fault.Plan, res *Resilience) *Server {
	t.Helper()
	if res == nil {
		res = &Resilience{}
	}
	if res.ProbeEvery == 0 {
		res.ProbeEvery = 5 * time.Millisecond
	}
	s, err := NewServerWith(n, tpu.DefaultConfig(), ServerOptions{
		Faults:     &plan,
		Resilience: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestFailoverFromDeadDevice pins the core recovery behaviour: with one
// device dead from t=0, every request still succeeds, the dead device is
// quarantined, and failovers are counted.
func TestFailoverFromDeadDevice(t *testing.T) {
	s := newChaosServer(t, 4, fault.Plan{Seed: 1, DeadDevices: []int{0}}, nil)
	m, p, in := testModel()
	for i := 0; i < 8; i++ {
		// Prefer the dead device: the picker must route around it after
		// the first failures quarantine it.
		if _, err := s.RunOnCtx(context.Background(), 0, m, p, in); err != nil {
			t.Fatalf("request %d failed despite three healthy devices: %v", i, err)
		}
	}
	if st := s.DeviceState(0); st != Quarantined {
		t.Errorf("dead device state = %v, want quarantined", st)
	}
	rs := s.ResilienceStats()
	if rs.Failovers == 0 {
		t.Error("no failovers recorded")
	}
	if rs.Retries == 0 {
		t.Error("no retries recorded")
	}
	h := s.Stats()
	if h[0].Failures == 0 || !strings.Contains(h[0].LastError, "dead") {
		t.Errorf("device 0 health record %+v missing the death", h[0])
	}
}

// TestQuarantineProbeReadmits kills a device, drives it into quarantine,
// revives it, and waits for a background probe to re-admit it. Hedging is
// off: a hedge on device 0 could win the final run on device 1 and return
// before device 1's own success is recorded.
func TestQuarantineProbeReadmits(t *testing.T) {
	s := newChaosServer(t, 2, fault.Plan{Seed: 1, TransientRate: 0}, &Resilience{HedgeAfterP99: -1})
	m, p, in := testModel()
	if _, err := s.RunCtx(context.Background(), m, p, in); err != nil {
		t.Fatal(err)
	}
	inj := s.Injectors()[1]
	inj.Kill()
	// Drive device 1 into quarantine by pinning requests at it.
	for i := 0; i < 6; i++ {
		if _, err := s.RunOnCtx(context.Background(), 1, m, p, in); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if st := s.DeviceState(1); st != Quarantined {
		t.Fatalf("killed device state = %v, want quarantined", st)
	}
	inj.Revive()
	deadline := time.Now().Add(2 * time.Second)
	for s.DeviceState(1) == Quarantined {
		if time.Now().After(deadline) {
			t.Fatalf("revived device never re-admitted; health: %+v", s.Stats()[1])
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := s.DeviceState(1); st != Degraded {
		t.Errorf("probe re-admitted device to %v, want degraded", st)
	}
	// A real success promotes it back to Healthy.
	if _, err := s.RunOnCtx(context.Background(), 1, m, p, in); err != nil {
		t.Fatal(err)
	}
	if st := s.DeviceState(1); st != Healthy {
		t.Errorf("successful run left device %v, want healthy", st)
	}
	h := s.Stats()[1]
	if h.Probes == 0 {
		t.Error("no probes recorded")
	}
}

// TestTransientRetries pins that transient faults are absorbed by retries:
// with a high transient rate and several devices, requests still succeed.
func TestTransientRetries(t *testing.T) {
	s := newChaosServer(t, 4, fault.Plan{Seed: 42, TransientRate: 0.3},
		&Resilience{MaxAttempts: 4})
	m, p, in := testModel()
	for i := 0; i < 40; i++ {
		if _, err := s.RunCtx(context.Background(), m, p, in); err != nil {
			t.Fatalf("request %d not absorbed: %v", i, err)
		}
	}
	if rs := s.ResilienceStats(); rs.Retries == 0 {
		t.Error("30% transient rate over 40 requests injected nothing? retries=0")
	}
}

// TestFaultPlanDeviceOutsideFleet: the injector matches dead and slow
// device indices by equality, so a plan naming a device the fleet lacks
// would inject nothing; the server refuses it, naming the index and the
// fleet size.
func TestFaultPlanDeviceOutsideFleet(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name string
		plan fault.Plan
		dev  int
	}{
		{"dead 9", fault.Plan{Seed: 1, DeadDevices: []int{9}}, 9},
		{"dead -1", fault.Plan{Seed: 1, DeadDevices: []int{-1}}, -1},
		{"dead n", fault.Plan{Seed: 1, DeadDevices: []int{0, n}}, n},
		{"slow 9", fault.Plan{Seed: 1, SlowDevices: []int{9}}, 9},
		{"slow -1", fault.Plan{Seed: 1, SlowDevices: []int{-1}}, -1},
		{"slow n", fault.Plan{Seed: 1, SlowDevices: []int{n}}, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewServerWith(n, tpu.DefaultConfig(), ServerOptions{Faults: &tc.plan})
			if err == nil {
				s.Close()
				t.Fatal("plan naming a device outside the fleet accepted")
			}
			want := fmt.Sprintf("device %d, outside the fleet of %d", tc.dev, n)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not contain %q", err, want)
			}
		})
	}
	plan := fault.Plan{Seed: 1, DeadDevices: []int{0}, SlowDevices: []int{n - 1}}
	s, err := NewServerWith(n, tpu.DefaultConfig(), ServerOptions{Faults: &plan})
	if err != nil {
		t.Fatalf("plan naming devices 0 and %d of %d rejected: %v", n-1, n, err)
	}
	s.Close()
}

// TestRunAllChargesDeadDevice: RunAll reaches each device through the one
// dispatch path, so on a server without a recovery policy the batches striped
// onto a dead device fail, are charged to that device's record, and leave
// every other device's record clean.
func TestRunAllChargesDeadDevice(t *testing.T) {
	const dead = 2
	plan := fault.Plan{Seed: 1, DeadDevices: []int{dead}}
	s, err := NewServerWith(4, tpu.DefaultConfig(), ServerOptions{Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	m, p, in := testModel()
	res, err := s.RunAll(slices.Repeat([]Request{{m, p, in}}, 8))
	if err == nil || !strings.Contains(err.Error(), "dead") {
		t.Fatalf("RunAll with a dead device = %v, want its failure", err)
	}
	for i, r := range res {
		if (r == nil) != (i%4 == dead) {
			t.Errorf("request %d: result %v, want one exactly when it missed device %d", i, r, dead)
		}
	}
	for dev, st := range s.Stats() {
		wantRuns, wantFailures := int64(2), int64(0)
		if dev == dead {
			wantRuns, wantFailures = 0, 2
		}
		if st.Runs != wantRuns || st.Failures != wantFailures {
			t.Errorf("%s: %d runs, %d failures, want %d and %d", st.Device, st.Runs, st.Failures, wantRuns, wantFailures)
		}
	}
	if st := s.DeviceState(dead); st != Degraded {
		t.Errorf("dead device state = %v after two failures, want degraded", st)
	}
}

// TestRunAllRetriesTransients: on a server with a recovery policy, RunAll's
// batches take the recovery path, so transient faults are retried and every
// request gets its result.
func TestRunAllRetriesTransients(t *testing.T) {
	s := newChaosServer(t, 4, fault.Plan{Seed: 42, TransientRate: 0.3},
		&Resilience{MaxAttempts: 8})
	m, p, in := testModel()
	res, err := s.RunAll(slices.Repeat([]Request{{m, p, in}}, 24))
	if err != nil {
		t.Fatalf("RunAll under a 30%% transient rate: %v", err)
	}
	for i, r := range res {
		if r == nil {
			t.Errorf("request %d has no result", i)
		}
	}
	if rs := s.ResilienceStats(); rs.Retries == 0 {
		t.Error("30% transient rate over 24 requests injected nothing? retries=0")
	}
}

// TestHedgeFiresOnStraggler makes device runs slow via a static throttle
// and checks a hedge launches once a p99 is known.
func TestHedgeFiresOnStraggler(t *testing.T) {
	s := newChaosServer(t, 2, fault.Plan{Seed: 3},
		&Resilience{HedgeAfterP99: 0.2})
	m, p, in := testModel()
	// Warm both devices and the latency window.
	for i := 0; i < 12; i++ {
		if _, err := s.RunCtx(context.Background(), m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	// Throttle device 0 hard; its next run outlives 0.2x p99 immediately.
	s.Injectors()[0].SetStaticSlow(500)
	deadline := time.Now().Add(5 * time.Second)
	for s.ResilienceStats().Hedges == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no hedge launched; stats %+v", s.ResilienceStats())
		}
		if _, err := s.RunOnCtx(context.Background(), 0, m, p, in); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAttemptTimeoutCancelsHang pins that a hang is bounded by the derived
// per-attempt timeout (a never-run model gets the 25ms floor) and charged to
// the device.
func TestAttemptTimeoutCancelsHang(t *testing.T) {
	s := newChaosServer(t, 2, fault.Plan{Seed: 4, HangRate: 1, HangSeconds: 30},
		&Resilience{MaxAttempts: 2})
	m, p, in := testModel()
	start := time.Now()
	_, err := s.RunCtx(context.Background(), m, p, in)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang not bounded by attempt timeout: %v", elapsed)
	}
	if err == nil {
		t.Fatal("both devices hang forever; the request cannot succeed")
	}
	if rs := s.ResilienceStats(); rs.AttemptTimeouts == 0 {
		t.Errorf("no attempt timeouts recorded: %+v", rs)
	}
}

// TestRunCtxCancelledWhileWaitingForDevice is the satellite regression: a
// request whose context is cancelled while it waits for the model's device
// (held by a long run) returns ctx.Err() promptly instead of queueing.
func TestRunCtxCancelledWhileWaitingForDevice(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := tpu.DefaultConfig()
	cfg.Hook = func(ctx context.Context, inv tpu.Invocation) (tpu.Counters, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		select {
		case <-release:
		case <-ctx.Done():
			return tpu.Counters{}, ctx.Err()
		}
		return inv.Run()
	}
	s := newTestServer(t, 1, cfg)
	m, p, in := testModel()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := s.Run(m, p, in); err != nil {
			t.Errorf("holder run failed: %v", err)
		}
	}()
	<-started // the holder owns the device and is stalled in the hook

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := s.drivers[0].RunCtx(ctx, m, p, in)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("queued run returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled waiter stalled %v behind the device holder", elapsed)
	}

	// A live waiter cancelled mid-wait also unblocks promptly.
	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.drivers[0].RunCtx(ctx2, m, p, in)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-wait cancel returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter never returned")
	}

	close(release)
	wg.Wait()
}

// TestServerRunCtxCancelledBeforePick is the other half of the satellite:
// an already-cancelled request never consumes a device turn.
func TestServerRunCtxCancelledBeforePick(t *testing.T) {
	s, err := NewServer(2, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, p, in := testModel()
	if _, err := s.RunCtx(ctx, m, p, in); !errors.Is(err, context.Canceled) {
		t.Errorf("RunCtx = %v, want context.Canceled", err)
	}
	if _, err := s.RunOnCtx(ctx, 1, m, p, in); !errors.Is(err, context.Canceled) {
		t.Errorf("RunOnCtx = %v, want context.Canceled", err)
	}
	for _, st := range s.Stats() {
		if st.Runs != 0 {
			t.Errorf("cancelled request consumed a run on %s", st.Device)
		}
	}
}

// TestCompileFaultRetryable is the poisoned-cache satellite: an injected
// compile failure fails the first evaluation, but the entry is evicted so
// the next evaluation recompiles and succeeds, and the failed compile
// leaks no Weight Memory.
func TestCompileFaultRetryable(t *testing.T) {
	plan := fault.Plan{Seed: 1, FailCompiles: 1}
	s, err := NewServerWith(1, tpu.DefaultConfig(), ServerOptions{Faults: &plan})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, p, in := testModel()
	_, err = s.RunOnCtx(context.Background(), 0, m, p, in)
	if !errors.Is(err, fault.ErrCompile) {
		t.Fatalf("first run = %v, want injected compile failure", err)
	}
	r, err := s.RunOnCtx(context.Background(), 0, m, p, in)
	if err != nil {
		t.Fatalf("compile fault poisoned the cache: %v", err)
	}
	if r.Cached {
		t.Error("retry after failed compile claims a cache hit")
	}
	if n := compilations(s); n != 1 {
		t.Errorf("successful compilations = %d, want 1", n)
	}
	// The failed compile reserved nothing: the high-water mark equals one
	// residency's footprint, and the free list is empty.
	s.mu.Lock()
	next, free := s.weightNext, len(s.weightFree)
	s.mu.Unlock()
	if want := uint64(compiler.WeightFootprint(m, false)); next != want || free != 0 {
		t.Errorf("Weight Memory high-water mark %d B with %d free-list regions, want %d B and none", next, free, want)
	}
}

// TestChaosDeterminism pins the acceptance criterion at the fleet level:
// two servers built from the same chaos plan observe the same injected
// fault sequence, flip addresses included, under the same request stream.
func TestChaosDeterminism(t *testing.T) {
	run := func() []string {
		plan := fault.Plan{Seed: 11, TransientRate: 0.3, FlipUBRate: 0.1}
		s, err := NewServerWith(2, tpu.DefaultConfig(), ServerOptions{
			Faults: &plan,
			// Hedging and probing race the request stream, so disable both:
			// determinism here means the per-device injected sequence is a
			// pure function of the plan seed and the request order.
			Resilience: &Resilience{MaxAttempts: 6, HedgeAfterP99: -1, ProbeEvery: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		m, p, in := testModel()
		for i := 0; i < 30; i++ {
			// Alternate pinned devices so the request-to-device mapping is
			// deterministic regardless of retry scheduling.
			if _, err := s.RunOnCtx(context.Background(), i%2, m, p, in); err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
		}
		var log []string
		for dev, inj := range s.Injectors() {
			for _, e := range inj.Events() {
				log = append(log, fmt.Sprintf("%d:%d:%s@%#x", dev, e.Seq, e.Kind, e.Addr))
			}
		}
		return log
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults injected at 40% total rate over 30 requests")
	}
	if strings.Join(a, ";") != strings.Join(b, ";") {
		t.Fatalf("same plan diverged:\n a=%v\n b=%v", a, b)
	}
	for _, kind := range []string{":transient@", ":flip-ub@"} {
		if !strings.Contains(strings.Join(a, ";"), kind) {
			t.Errorf("no %s event in the fault log %v", strings.Trim(kind, ":@"), a)
		}
	}
}

// TestWallP99IsWindowMax: the hedge trigger's p99 (a max over the window)
// equals what sorting a copy of the window and reading index n*99/100 gave,
// for every fill from 1 to 32 samples and after the ring wraps.
func TestWallP99IsWindowMax(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var w wallStats
		for k := 1 + rng.Intn(80); k > 0; k-- {
			w.observe(rng.ExpFloat64() * 1e-3)
			n := min(w.n, len(w.window))
			xs := slices.Clone(w.window[:n])
			slices.Sort(xs)
			if got, want := w.p99(), xs[n*99/100]; got != want {
				t.Fatalf("trial %d, %d samples: p99 %v, sorted window %v", trial, w.n, got, want)
			}
		}
	}
	if (&wallStats{}).p99() != 0 {
		t.Error("an empty window's p99 is not 0")
	}
}

// TestRawServerLearnsNoWall: without a Resilience policy nothing reads the
// wall learner (only attempt timeouts and hedges do), so a raw server's
// batches leave it empty.
func TestRawServerLearnsNoWall(t *testing.T) {
	s := newTestServer(t, 1, tpu.DefaultConfig())
	m, p, in := testModel()
	if _, err := s.Run(m, p, in); err != nil {
		t.Fatal(err)
	}
	s.wallMu.Lock()
	defer s.wallMu.Unlock()
	if len(s.modelWall) != 0 || s.wallPerCycle != 0 {
		t.Fatalf("raw server learned wall latency: %d models, %g s/cycle", len(s.modelWall), s.wallPerCycle)
	}
}

// TestObserveWallRejectsNonFinite: a NaN or infinite latency never reaches a
// model's wall record.
func TestObserveWallRejectsNonFinite(t *testing.T) {
	s, err := NewServer(1, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []InferenceResult{
		{WallSeconds: math.Inf(1)},
		{WallSeconds: math.NaN()},
		{DeviceSeconds: math.NaN()},
		{DeviceSeconds: math.Inf(1)},
		{DeviceSeconds: -1},
	} {
		s.observeWall("m", &r)
	}
	if ws := s.modelWall["m"]; ws != nil {
		t.Fatalf("non-finite latencies recorded: %+v", *ws)
	}
	s.observeWall("m", &InferenceResult{WallSeconds: 2e-3})
	if ws := s.modelWall["m"]; ws == nil || ws.p99() != 2e-3 {
		t.Fatal("a finite latency was not recorded")
	}
}
