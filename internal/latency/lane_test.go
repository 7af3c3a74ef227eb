package latency

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tpusim/internal/stats"
	"tpusim/internal/workload"
)

// oracleSimulate is the scan loop Simulate ran before the Lane existed, kept
// verbatim as the reference the lane driver must reproduce bit for bit.
func oracleSimulate(sm ServiceModel, cfg Config) (Result, error) {
	if cfg.Batch <= 0 {
		return Result{}, fmt.Errorf("latency: non-positive batch %d", cfg.Batch)
	}
	if cfg.Requests <= 0 {
		return Result{}, fmt.Errorf("latency: non-positive request count %d", cfg.Requests)
	}
	arr, err := workload.NewPoisson(cfg.RatePerSecond, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	arrivals := workload.Collect(arr, cfg.Requests)

	latencies := make([]float64, 0, cfg.Requests)
	var serverFree float64
	batches, maxQueue := 0, 0
	i := 0
	for i < len(arrivals) {
		// The server picks up work at the later of its availability and
		// the first waiting request's arrival.
		start := serverFree
		if arrivals[i] > start {
			start = arrivals[i]
		}
		// Take every request that has arrived by start, up to Batch.
		j := i
		for j < len(arrivals) && j-i < cfg.Batch && arrivals[j] <= start {
			j++
		}
		if depth := oracleWaiting(arrivals, i, start); depth > maxQueue {
			maxQueue = depth
		}
		if j == i {
			j = i + 1 // at least the first request
		}
		n := j - i
		svc, err := sm.BatchSeconds(n)
		if err != nil {
			return Result{}, err
		}
		if svc <= 0 {
			return Result{}, fmt.Errorf("latency: non-positive service time %v for batch %d", svc, n)
		}
		done := start + svc
		for k := i; k < j; k++ {
			latencies = append(latencies, done-arrivals[k])
		}
		serverFree = done
		batches++
		i = j
	}

	p99, err := stats.Percentile(latencies, 99)
	if err != nil {
		return Result{}, err
	}
	span := serverFree - arrivals[0]
	return Result{
		P99:        p99,
		Throughput: float64(cfg.Requests) / span,
		MeanBatch:  float64(cfg.Requests) / float64(batches),
		MaxQueue:   maxQueue,
	}, nil
}

// oracleWaiting counts requests at or after index i that have arrived by
// time t — the queue depth the server sees at a dispatch point.
func oracleWaiting(arrivals []float64, i int, t float64) int {
	n := 0
	for k := i; k < len(arrivals) && arrivals[k] <= t; k++ {
		n++
	}
	return n
}

// TestSimulateMatchesOracle: over seeded random (rate, batch, service
// curve) draws from idle to past saturation, the lane driver returns the
// deleted loop's Result exactly.
func TestSimulateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for draw := 0; draw < 250; draw++ {
		base, per := rng.Float64()*2e-3, 1e-6+rng.Float64()*2e-4
		sm := fixedService(base, per)
		batch := 1 + rng.Intn(128)
		cap_, err := Capacity(sm, batch)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Batch:         batch,
			RatePerSecond: cap_ * (0.05 + 1.2*rng.Float64()),
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
			t.Fatalf("draw %d (%+v, svc %.3g+%.3g n):\n got %+v\nwant %+v", draw, cfg, base, per, got, want)
		}
	}
}

// TestMD1MeanWait anchors the lane driver to queueing theory: batch cap 1,
// constant service s and Poisson arrivals are an M/D/1 queue, whose mean
// wait is rho*s / 2(1-rho).
func TestMD1MeanWait(t *testing.T) {
	const s = 1e-3
	sm := fixedService(s, 0)
	const requests = 400000
	for _, rho := range []float64{0.3, 0.6, 0.8} {
		run, err := OpenLoop(&Lane[At]{Cap: 1}, sm, rho/s, requests, 21)
		if err != nil {
			t.Fatal(err)
		}
		var mean float64
		for _, l := range run.Latencies {
			mean += l
		}
		mean /= float64(len(run.Latencies))
		got, want := mean-s, rho*s/(2*(1-rho))
		if math.Abs(got-want) > 0.03*want {
			t.Errorf("rho %.1f: mean wait %.4g s, M/D/1 says %.4g s (%.1f%% off)", rho, got, want, (got/want-1)*100)
		}
		if run.Batches != requests {
			t.Errorf("rho %.1f: %d batches for %d requests with cap 1", rho, run.Batches, requests)
		}
	}
}

// TestSaturationThroughput: offered far more than it can serve, the server
// runs back-to-back full batches, so throughput is Batch / svc(Batch).
func TestSaturationThroughput(t *testing.T) {
	sm := fixedService(2e-3, 0.05e-3)
	for _, batch := range []int{1, 16, 200} {
		cap_, err := Capacity(sm, batch)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Simulate(sm, Config{Batch: batch, RatePerSecond: 3 * cap_, Requests: 100 * batch, Seed: 22})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Throughput-cap_) > 0.01*cap_ {
			t.Errorf("batch %d: saturation throughput %.1f/s, want Batch/svc(Batch) = %.1f/s", batch, r.Throughput, cap_)
		}
	}
}

// FuzzLane drives one lane with a random interleaving of Offer, Due and
// Take at nondecreasing times and checks every rule against a plain model
// of the queue: conservation, the batch cap, FIFO order, the admission
// bound, the fill deadline, who is shed and at what price.
func FuzzLane(f *testing.F) {
	f.Add([]byte{3, 4, 10, 20, 0, 0, 0, 1, 2, 0, 0, 0, 2, 9})
	f.Add([]byte{1, 0, 0, 0, 0, 5, 0, 7, 2, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 2, 0, 60, 2}) // the older of two is shed, the kept one re-priced
	f.Add([]byte{8, 2, 200, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 255, 2, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		l := Lane[At]{
			Cap:     1 + int(in[0])%8,
			Limit:   int(in[1]) % 17,
			MaxWait: float64(in[2]) * 1e-4,
			SLA:     float64(in[3]) * 1e-3,
		}
		sm := fixedService(0.5e-3, 0.25e-3)
		var model []float64 // the queue the lane should hold
		offered, refused, kept, expired := 0, 0, 0, 0
		now := 0.0
		for _, b := range in[4:] {
			now += float64(b>>2) * 1e-4
			switch b & 3 {
			case 0, 1:
				offered++
				wantOK := l.Limit == 0 || len(model) < l.Limit
				if ok := l.Offer(At(now)); ok != wantOK {
					t.Fatalf("Offer with %d queued, limit %d: got %v", len(model), l.Limit, ok)
				}
				if wantOK {
					model = append(model, now)
				} else {
					refused++
				}
			case 2:
				n := min(len(model), l.Cap)
				batch, shed, svc, err := l.Take(now, sm)
				if err != nil {
					t.Fatal(err)
				}
				if len(batch)+len(shed) != n {
					t.Fatalf("Take popped %d kept + %d shed, want %d (cap %d, %d queued)", len(batch), len(shed), n, l.Cap, len(model))
				}
				if n == 0 {
					break
				}
				popped, _ := sm.BatchSeconds(n)
				var want, wantShed []float64
				for _, a := range model[:n] {
					if l.SLA == 0 || !Late(a, now, popped, l.SLA) {
						want = append(want, a)
					} else {
						wantShed = append(wantShed, a)
					}
				}
				model = model[n:]
				if len(batch) != len(want) {
					t.Fatalf("Take kept %d of %d, the popped batch's price keeps %d", len(batch), n, len(want))
				}
				// Kept and shed partition the popped prefix, each in FIFO order.
				for i, a := range shed {
					if float64(a) != wantShed[i] {
						t.Fatalf("shed[%d] arrived %v, FIFO says %v", i, a, wantShed[i])
					}
				}
				price := popped
				if len(shed) > 0 && len(batch) > 0 {
					price, _ = sm.BatchSeconds(len(batch))
				}
				if svc != price {
					t.Fatalf("Take priced %d kept of %d popped at %v, want %v", len(batch), n, svc, price)
				}
				for i, a := range batch {
					if float64(a) != want[i] {
						t.Fatalf("kept[%d] arrived %v, FIFO says %v", i, a, want[i])
					}
					if l.SLA > 0 && now+svc-float64(a) > l.SLA+SLASlop {
						t.Fatalf("kept request misses the SLA: latency %v > %v", now+svc-float64(a), l.SLA)
					}
				}
				kept += len(batch)
				expired += len(shed)
			case 3:
				at, full := l.Due()
				if full != (len(model) >= l.Cap) {
					t.Fatalf("Due full = %v with %d queued, cap %d", full, len(model), l.Cap)
				}
				if len(model) == 0 {
					if !math.IsInf(at, 1) {
						t.Fatalf("empty lane due at %v", at)
					}
				} else if at != model[0]+l.MaxWait || at < float64(l.Head()) {
					t.Fatalf("Due at %v, head arrived %v + MaxWait %v", at, model[0], l.MaxWait)
				}
			}
			if l.Len() != len(model) {
				t.Fatalf("lane holds %d, model %d", l.Len(), len(model))
			}
		}
		if offered != l.Len()+kept+expired+refused {
			t.Fatalf("offered %d != queued %d + kept %d + expired %d + refused %d", offered, l.Len(), kept, expired, refused)
		}
		if rest := l.Drain(nil); len(rest) != len(model) || l.Len() != 0 {
			t.Fatalf("Drain returned %d of %d and left %d", len(rest), len(model), l.Len())
		}
	})
}
