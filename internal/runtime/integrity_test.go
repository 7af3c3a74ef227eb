package runtime

import (
	"context"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"tpusim/internal/fault"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// refOutput runs the model on a clean, integrity-free server and returns
// the reference output all recovery paths must reproduce bit-exactly.
func refOutput(t *testing.T) *tensor.F32 {
	t.Helper()
	s := newChaosServer(t, 1, fault.Plan{Seed: 99}, &Resilience{ProbeEvery: -1})
	m, p, in := testModel()
	r, err := s.RunCtx(context.Background(), m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	return r.Output
}

// TestDetectTierScrubsAndRetries pins the tentpole's recovery ladder on a
// single device: a persistent weight-DRAM flip fails the attempt with a
// detected-SDC error, the runtime scrubs the device's weight DRAM from the
// golden image, and the retry succeeds bit-exactly — no second device
// needed.
func TestDetectTierScrubsAndRetries(t *testing.T) {
	ref := refOutput(t)
	s := newChaosServer(t, 1, fault.Plan{Seed: 2},
		&Resilience{Integrity: tpu.IntegrityDetect, ProbeEvery: -1})
	m, p, in := testModel()
	ctx := context.Background()
	if _, err := s.RunCtx(ctx, m, p, in); err != nil {
		t.Fatal(err)
	}
	// Several sign-bit flips so requantization cannot wash all of them out.
	for k := uint64(0); k < 4; k++ {
		if err := s.Injectors()[0].FlipOnce(fault.KindFlipWeights, 100+k*37, 7); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.RunCtx(ctx, m, p, in)
	if err != nil {
		t.Fatalf("detect-tier run did not recover: %v", err)
	}
	if !equalOutputs(r.Output, ref) {
		t.Error("recovered output differs from the clean reference")
	}
	rs := s.ResilienceStats()
	if rs.SDCFailures == 0 {
		t.Error("no SDC failures recorded")
	}
	if rs.Retries == 0 {
		t.Error("recovery did not retry")
	}
	st := s.IntegrityStats()
	if st.Detected == 0 {
		t.Errorf("no corruption detected: %+v", st)
	}
	if st.ScrubRepairs == 0 {
		t.Errorf("scrub-on-SDC repaired nothing: %+v", st)
	}
	// The device failed once, then answered the retry: it must be back on
	// its way to healthy, not quarantined.
	if got := s.DeviceState(0); got == Quarantined {
		t.Errorf("device quarantined after a recovered SDC, state=%v", got)
	}
}

// TestObserveDuringScrub: re-pointing the server's sinks while a detect-tier
// run scrubs a flipped weight tile and logs the repair is race-free (run it
// under -race).
func TestObserveDuringScrub(t *testing.T) {
	s := newChaosServer(t, 1, fault.Plan{Seed: 2},
		&Resilience{Integrity: tpu.IntegrityDetect, ProbeEvery: -1})
	m, p, in := testModel()
	ctx := context.Background()
	if _, err := s.RunCtx(ctx, m, p, in); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 4; k++ {
		if err := s.Injectors()[0].FlipOnce(fault.KindFlipWeights, 100+k*37, 7); err != nil {
			t.Fatal(err)
		}
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				s.Observe(nil, logger)
			}
		}
	}()
	_, err := s.RunCtx(ctx, m, p, in)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("detect-tier run did not recover: %v", err)
	}
	if st := s.IntegrityStats(); st.ScrubRepairs == 0 {
		t.Errorf("scrub-on-SDC repaired nothing, so logged nothing: %+v", st)
	}
}

// TestCorrectTierRepairsInPlace: at detect+correct, PE and weight flips are
// repaired on-device — the request succeeds on the first attempt with a
// bit-exact output and no retries.
func TestCorrectTierRepairsInPlace(t *testing.T) {
	ref := refOutput(t)
	s := newChaosServer(t, 1, fault.Plan{Seed: 3},
		&Resilience{Integrity: tpu.IntegrityCorrect, ProbeEvery: -1})
	m, p, in := testModel()
	ctx := context.Background()
	if _, err := s.RunCtx(ctx, m, p, in); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		kind fault.Kind
		addr uint64
	}{
		{fault.KindFlipPE, 5},
		{fault.KindFlipWeights, 4321},
	} {
		if err := s.Injectors()[0].FlipOnce(f.kind, f.addr, 7); err != nil {
			t.Fatal(err)
		}
		r, err := s.RunCtx(ctx, m, p, in)
		if err != nil {
			t.Fatalf("%v not corrected in place: %v", f.kind, err)
		}
		if !equalOutputs(r.Output, ref) {
			t.Errorf("%v: corrected output differs from the clean reference", f.kind)
		}
	}
	if rs := s.ResilienceStats(); rs.Retries != 0 {
		t.Errorf("in-place correction should not retry, got %d retries", rs.Retries)
	}
	st := s.IntegrityStats()
	if st.Detected == 0 || st.Corrected+st.Recomputed == 0 {
		t.Errorf("no in-place repairs recorded: %+v", st)
	}
}

// TestRepeatedSDCWalksHealthMachine: a device that keeps corrupting data
// (UB upsets have no on-device repair) accumulates failures through the
// health machine exactly like one that keeps dying, while every request
// still succeeds by failing over. Hedging is on: a hedge on device 1 can
// win before device 0's attempt fails, and that losing attempt still
// records its failure and counts its corruption when it ends.
func TestRepeatedSDCWalksHealthMachine(t *testing.T) {
	s := newChaosServer(t, 2, fault.Plan{Seed: 4},
		&Resilience{Integrity: tpu.IntegrityDetect, ProbeEvery: -1})
	m, p, in := testModel()
	ctx := context.Background()
	// Warm both devices.
	for i := 0; i < 2; i++ {
		if _, err := s.RunCtx(ctx, m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := s.Injectors()[0].FlipOnce(fault.KindFlipUB, uint64(17+i), 3); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunOnCtx(ctx, 0, m, p, in); err != nil {
			t.Fatalf("request %d failed despite a healthy second device: %v", i, err)
		}
	}
	// A hedge loser is still running when its request returns.
	for deadline := time.Now().Add(5 * time.Second); s.ResilienceStats().SDCFailures < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := s.DeviceState(0); got == Healthy {
		t.Errorf("device 0 still healthy after repeated SDC, state=%v", got)
	}
	h := s.Stats()
	if h[0].Failures < 3 {
		t.Errorf("device 0 records %d failures, want >= 3", h[0].Failures)
	}
	rs := s.ResilienceStats()
	if rs.SDCFailures < 3 {
		t.Errorf("SDCFailures = %d, want >= 3", rs.SDCFailures)
	}
	if rs.Failovers == 0 {
		t.Error("no failovers recorded")
	}
}

// TestHedgeLoserSDCScrubbed: a request whose hedge wins returns before
// its first attempt has run. When that attempt does run and catches
// corrupted weight tiles, it still counts the corruption and scrubs its
// device, though no one reads its outcome.
func TestHedgeLoserSDCScrubbed(t *testing.T) {
	s := newChaosServer(t, 2, fault.Plan{Seed: 4},
		&Resilience{Integrity: tpu.IntegrityDetect, ProbeEvery: -1, TimeoutFactor: 1000})
	m, p, in := testModel()
	ctx := context.Background()
	// Load the model on both devices and learn the hedge delay's p99.
	for i := 0; i < 8; i++ {
		if _, err := s.RunOnCtx(ctx, i%2, m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 4; k++ {
		if err := s.Injectors()[0].FlipOnce(fault.KindFlipWeights, k*257, 7); err != nil {
			t.Fatal(err)
		}
	}
	// Hold device 0's run slot: the attempt pinned there waits for it, and
	// the hedge to device 1 wins.
	d := s.drivers[0]
	d.mu.Lock()
	sl := d.slots[m.Name]
	d.mu.Unlock()
	if err := sl.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	before := s.ResilienceStats()
	_, err := s.RunOnCtx(ctx, 0, m, p, in)
	atReturn := s.ResilienceStats()
	sl.release()
	if err != nil {
		t.Fatal(err)
	}
	if wins := atReturn.HedgeWins - before.HedgeWins; wins != 1 || atReturn.SDCFailures != 0 {
		t.Fatalf("at return: %d hedge wins, %d SDC failures; want the hedge to win before device 0 runs", wins, atReturn.SDCFailures)
	}
	for deadline := time.Now().Add(5 * time.Second); s.ResilienceStats().SDCFailures == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := s.ResilienceStats().SDCFailures; got != 1 {
		t.Fatalf("SDCFailures = %d after the losing attempt ran, want 1", got)
	}
	if _, repaired := s.Scrub(ctx); repaired != 0 {
		t.Errorf("a full scrub repaired %d tiles the losing attempt's scrub left corrupted", repaired)
	}
}

// TestScrubRepairsOffTierFlip: with the integrity machinery off, a
// persistent weight flip survives a run and corrupts its output silently;
// one scrub pass repairs the tile from the golden image, a second finds
// nothing left, and the next run matches the reference bit for bit.
func TestScrubRepairsOffTierFlip(t *testing.T) {
	ref := refOutput(t)
	s := newChaosServer(t, 1, fault.Plan{Seed: 6},
		&Resilience{Integrity: tpu.IntegrityOff, ProbeEvery: -1})
	m, p, in := testModel()
	ctx := context.Background()
	if _, err := s.RunCtx(ctx, m, p, in); err != nil {
		t.Fatal(err)
	}
	// Sign-bit flips on the diagonal of the first layer's 16×16 weights, in
	// one tile, so requantization cannot wash all of them out.
	for k := uint64(0); k < 4; k++ {
		if err := s.Injectors()[0].FlipOnce(fault.KindFlipWeights, k*257, 7); err != nil {
			t.Fatal(err)
		}
	}
	r, err := s.RunCtx(ctx, m, p, in)
	if err != nil {
		t.Fatalf("off-tier run failed: %v", err)
	}
	if equalOutputs(r.Output, ref) {
		t.Error("the off-tier run hid the weight flips: its output matches the reference")
	}
	if _, repaired := s.Scrub(ctx); repaired != 1 {
		t.Errorf("first scrub repaired %d tiles, want 1", repaired)
	}
	if _, repaired := s.Scrub(ctx); repaired != 0 {
		t.Errorf("second scrub repaired %d tiles, want 0", repaired)
	}
	r, err = s.RunCtx(ctx, m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if !equalOutputs(r.Output, ref) {
		t.Error("the run after the scrub differs from the clean reference")
	}
}

// TestIntegrityTierStrings pins the tier names used in logs and docs.
func TestIntegrityTierStrings(t *testing.T) {
	for tier, want := range map[tpu.IntegrityLevel]string{
		tpu.IntegrityOff:     "off",
		tpu.IntegrityDetect:  "detect",
		tpu.IntegrityCorrect: "correct",
	} {
		if got := tier.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(tier), got, want)
		}
	}
}
