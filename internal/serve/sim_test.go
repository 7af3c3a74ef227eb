package serve

import (
	"fmt"
	"math/rand"
	"testing"

	"tpusim/internal/latency"
	"tpusim/internal/stats"
	"tpusim/internal/workload"
)

// mlp0Like is a service model shaped like the TPU's MLP0 batch-time curve:
// mostly fixed cost, tiny per-item cost, safe at its full production batch.
func mlp0Like() (Policy, *int) {
	return Policy{MaxBatch: 200, SLASeconds: 7e-3}, nil
}

func TestSimulateLightLoadNoShedding(t *testing.T) {
	sm := linearService(0.75e-3, 0.4e-6) // svc(200) ~ 0.83ms, like MLP0
	pol, _ := mlp0Like()
	r, err := Simulate(sm, SimConfig{Policy: pol, RatePerSecond: 10_000, Requests: 5000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shed != 0 {
		t.Errorf("light load shed %d requests", r.Shed)
	}
	if r.Completed != 5000 {
		t.Errorf("completed %d of 5000", r.Completed)
	}
	if r.P99 > pol.SLASeconds {
		t.Errorf("p99 %.2f ms exceeds SLA", r.P99*1e3)
	}
	// Achieved throughput tracks offered load when nothing is shed.
	if r.Throughput < 0.9*10_000 || r.Throughput > 1.1*10_000 {
		t.Errorf("throughput %.0f, offered 10000", r.Throughput)
	}
}

func TestSimulateOverloadShedsNotViolates(t *testing.T) {
	sm := linearService(0.75e-3, 0.4e-6)
	pol, _ := mlp0Like()
	plan, err := pol.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	capacity := float64(plan.SafeBatch) / plan.SafeServiceSeconds
	r, err := Simulate(sm, SimConfig{Policy: pol, RatePerSecond: 1.5 * capacity, Requests: 20000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+r.Shed != 20000 {
		t.Errorf("accounting broken: %d completed + %d shed != 20000", r.Completed, r.Shed)
	}
	if r.Shed == 0 {
		t.Error("overload shed nothing")
	}
	// The core SLA property: served requests never violate the deadline.
	if r.P99 > pol.SLASeconds+slaSlop {
		t.Errorf("p99 %.2f ms exceeds the 7 ms SLA under overload", r.P99*1e3)
	}
	// Shedding protects throughput: the server still completes close to
	// its deadline-safe capacity.
	if r.Throughput < 0.85*capacity {
		t.Errorf("overload throughput %.0f below 85%% of capacity %.0f", r.Throughput, capacity)
	}
	// Full batches under overload.
	if r.MeanBatch < 0.8*float64(plan.SafeBatch) {
		t.Errorf("mean batch %.1f, overload should fill to ~%d", r.MeanBatch, plan.SafeBatch)
	}
	if f := r.ShedFrac(); f <= 0 || f >= 1 {
		t.Errorf("shed fraction %.2f out of (0,1)", f)
	}
}

// TestSimulateKnee: the latency-bounded-throughput knee — achieved tracks
// offered until capacity, then flattens while p99 stays bounded.
func TestSimulateKnee(t *testing.T) {
	sm := linearService(0.75e-3, 0.4e-6)
	pol, _ := mlp0Like()
	plan, err := pol.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	capacity := float64(plan.SafeBatch) / plan.SafeServiceSeconds
	var prev float64
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0, 1.25} {
		r, err := Simulate(sm, SimConfig{Policy: pol, RatePerSecond: frac * capacity, Requests: 10000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.P99 > pol.SLASeconds+slaSlop {
			t.Errorf("frac %.2f: p99 %.2f ms exceeds SLA", frac, r.P99*1e3)
		}
		if frac <= 0.75 && r.Throughput < 0.9*frac*capacity {
			t.Errorf("frac %.2f: below-knee throughput %.0f should track offered %.0f",
				frac, r.Throughput, frac*capacity)
		}
		if frac >= 1.0 && r.Throughput > 1.05*capacity {
			t.Errorf("frac %.2f: throughput %.0f exceeds capacity %.0f", frac, r.Throughput, capacity)
		}
		if r.Throughput+1 < prev*0.95 {
			t.Errorf("frac %.2f: throughput collapsed %.0f -> %.0f", frac, prev, r.Throughput)
		}
		prev = r.Throughput
	}
}

func TestSimulateDownsizedBatchStillMeetsSLA(t *testing.T) {
	// CNN1-like: production batch violates the SLA; the batcher's safe
	// batch keeps p99 bounded at reduced but nonzero throughput.
	sm := linearService(4.2e-3, 0.26e-3)
	pol := Policy{MaxBatch: 32, SLASeconds: 7e-3}
	plan, err := pol.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	capacity := float64(plan.SafeBatch) / plan.SafeServiceSeconds
	r, err := Simulate(sm, SimConfig{Policy: pol, RatePerSecond: 1.2 * capacity, Requests: 8000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The hard property: served requests never violate the SLA, even though
	// svc(1) = 4.46 ms leaves almost no queueing headroom against 7 ms.
	if r.P99 > pol.SLASeconds+slaSlop {
		t.Errorf("p99 %.2f ms exceeds SLA despite downsized batch", r.P99*1e3)
	}
	if r.MeanBatch > float64(plan.SafeBatch) {
		t.Errorf("mean batch %.1f exceeds safe batch %d", r.MeanBatch, plan.SafeBatch)
	}
	// This service shape is genuinely latency-limited (the paper's Table 3
	// story): throughput under the SLA is a fraction of batch capacity, but
	// the server keeps serving rather than collapsing.
	if r.Completed == 0 || r.Throughput <= 0 {
		t.Error("downsized server served nothing")
	}
	if r.Throughput > capacity {
		t.Errorf("throughput %.0f exceeds capacity %.0f", r.Throughput, capacity)
	}
	if r.Shed == 0 {
		t.Error("overload shed nothing")
	}
}

func TestSimulateErrors(t *testing.T) {
	sm := linearService(1e-3, 0)
	if _, err := Simulate(sm, SimConfig{Policy: Policy{MaxBatch: 8, SLASeconds: 7e-3}, RatePerSecond: 100, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
	if _, err := Simulate(sm, SimConfig{Policy: Policy{MaxBatch: 8, SLASeconds: 7e-3}, RatePerSecond: 0, Requests: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Simulate(sm, SimConfig{Policy: Policy{MaxBatch: 0, SLASeconds: 7e-3}, RatePerSecond: 10, Requests: 10}); err == nil {
		t.Error("invalid policy accepted")
	}
}

// oracleSimulate is the scan loop Simulate ran before latency.Lane existed,
// kept verbatim (but for a queue pre-size that panicked on huge limits) as
// the reference the lane driver must reproduce bit for bit.
func oracleSimulate(sm latency.ServiceModel, cfg SimConfig) (SimResult, error) {
	plan, err := cfg.Policy.Resolve(sm)
	if err != nil {
		return SimResult{}, err
	}
	if cfg.Requests <= 0 {
		return SimResult{}, fmt.Errorf("serve: non-positive request count %d", cfg.Requests)
	}
	arr, err := workload.NewPoisson(cfg.RatePerSecond, cfg.Seed)
	if err != nil {
		return SimResult{}, err
	}
	arrivals := workload.Collect(arr, cfg.Requests)

	res := SimResult{Offered: cfg.RatePerSecond}
	latencies := make([]float64, 0, cfg.Requests)
	var pending []float64 // admitted arrival times, FIFO
	next := 0             // next arrival to admit or shed
	var serverFree, lastDone float64
	var batchSum int

	// admitUpTo processes arrivals through time t in order: each joins the
	// queue if there is room, and is shed otherwise. The queue only drains
	// at dispatch points, so admission between dispatches is a simple scan.
	admitUpTo := func(t float64) {
		for next < len(arrivals) && arrivals[next] <= t {
			if len(pending) < plan.QueueLimit {
				pending = append(pending, arrivals[next])
			} else {
				res.ShedQueue++
			}
			next++
		}
	}

	for {
		if len(pending) == 0 {
			if next >= len(arrivals) {
				break
			}
			// Idle server: jump to the next arrival, which is always
			// admitted into an empty queue.
			pending = append(pending, arrivals[next])
			next++
		}
		head := pending[0]
		ready := serverFree
		if head > ready {
			ready = head
		}
		admitUpTo(ready)
		// Fill wait: leave when the safe batch is queued or the head has
		// waited MaxWait — but never before the server is ready anyway.
		start := ready
		if fill := head + plan.MaxWaitSeconds; len(pending) < plan.SafeBatch && fill > ready {
			for next < len(arrivals) && arrivals[next] <= fill && len(pending) < plan.SafeBatch {
				start = arrivals[next]
				pending = append(pending, arrivals[next])
				next++
			}
			if len(pending) < plan.SafeBatch {
				start = fill // waited the full window, batch still short
			}
		}
		admitUpTo(start)
		n := len(pending)
		if n > plan.SafeBatch {
			n = plan.SafeBatch
		}
		svc, err := sm.BatchSeconds(n)
		if err != nil {
			return SimResult{}, err
		}
		if svc <= 0 {
			return SimResult{}, fmt.Errorf("serve: non-positive service time %v for batch %d", svc, n)
		}
		// Shed batch members that would violate the SLA if served now.
		// Shedding only shrinks the batch, which only shortens the service
		// time, so the kept requests' deadline check is conservative.
		kept := make([]float64, 0, n)
		for _, a := range pending[:n] {
			if plan.Expired(a, start, svc) {
				res.Expired++
				continue
			}
			kept = append(kept, a)
		}
		pending = pending[:copy(pending, pending[n:])]
		if len(kept) == 0 {
			continue // stale requests shed without occupying the server
		}
		svcKept, err := sm.BatchSeconds(len(kept))
		if err != nil {
			return SimResult{}, err
		}
		done := start + svcKept
		for _, a := range kept {
			latencies = append(latencies, done-a)
		}
		serverFree, lastDone = done, done
		res.Batches++
		batchSum += len(kept)
	}

	res.Shed = res.ShedQueue + res.Expired
	res.Completed = len(latencies)
	if res.Completed > 0 {
		if res.P99, err = stats.Percentile(latencies, 99); err != nil {
			return SimResult{}, err
		}
		if span := lastDone - arrivals[0]; span > 0 {
			res.Throughput = float64(res.Completed) / span
		}
		res.MeanBatch = float64(batchSum) / float64(res.Batches)
	}
	return res, nil
}

// TestSimulateMatchesOracle: over seeded random (rate, batch, MaxWait, SLA,
// service curve) draws from light load to deep overload, the lane driver
// returns the deleted loop's SimResult exactly. The service curve moves the
// derived queue bound between one and four safe batches; it is never below
// the safe batch, where the old loop's fill wait appended past the bound its
// own admission scan enforced.
func TestSimulateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shed, expired := 0, 0
	for draw := 0; draw < 300; draw++ {
		sla := 1e-3 + rng.Float64()*9e-3
		sm := linearService(rng.Float64()*0.6*sla, rng.Float64()*sla/100)
		pol := Policy{MaxBatch: 1 + rng.Intn(256), SLASeconds: sla}
		plan, err := pol.Resolve(sm)
		if err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			pol.MaxWaitSeconds = rng.Float64() * sla
		}
		cfg := SimConfig{
			Policy:        pol,
			RatePerSecond: float64(plan.SafeBatch) / plan.SafeServiceSeconds * (0.05 + 1.6*rng.Float64()),
			Requests:      1 + rng.Intn(3000),
			Seed:          rng.Int63(),
		}
		want, err := oracleSimulate(sm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Simulate(sm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("draw %d (%+v):\n got %+v\nwant %+v", draw, cfg, got, want)
		}
		shed += got.ShedQueue
		expired += got.Expired
	}
	if shed == 0 || expired == 0 {
		t.Errorf("draws never exercised both shed paths: %d refused, %d expired", shed, expired)
	}
}
