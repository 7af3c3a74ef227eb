package cluster

import (
	"testing"

	"tpusim/internal/latency"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// TestSingleReplicaMatchesScanDriver pins the fleet's batcher to the
// single-server one: a 1-host x 1-device x 1-replica fleet (autoscaler,
// retries and telemetry off) is the same latency.Lane under des events
// that serve.Simulate runs under the arrival scan, so fed the arrival
// times the app's NHPP draws, latency.Drive must produce the cluster's
// per-request latencies and shed counts exactly. Each case is compared at
// the first idle instant after its horizon, where both have resolved every
// arrival so far.
func TestSingleReplicaMatchesScanDriver(t *testing.T) {
	svc := testService(0.5e-3, 0.1e-3)
	capacity := 65 / (0.5e-3 + 65*0.1e-3) // safe batch 65 under 7 ms
	// thenLull holds a load for 0.3 s and drops to 10% of capacity: a busy
	// batching server is never idle, so the lull is where the instant comes.
	thenLull := func(load float64) workload.Curve {
		c, err := workload.NewPiecewiseLinear(
			workload.Point{T: 0.3, Rate: load * capacity}, workload.Point{T: 0.31, Rate: 0.1 * capacity})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cases := []struct {
		name    string
		policy  serve.Policy
		curve   workload.Curve
		horizon float64
	}{
		{"light", serve.Policy{MaxBatch: 64, SLASeconds: 7e-3}, workload.Constant(0.2 * capacity), 2},
		{"long fill wait", serve.Policy{MaxBatch: 16, SLASeconds: 7e-3, MaxWaitSeconds: 4e-3}, workload.Constant(0.3 * capacity), 2},
		{"busy", serve.Policy{MaxBatch: 64, SLASeconds: 7e-3}, thenLull(0.9), 0.5},
		{"overload", serve.Policy{MaxBatch: 64, SLASeconds: 7e-3}, thenLull(1.6), 0.5},
		// svc(8) = 1.3 ms: the derived bound is its deepest, four safe batches.
		{"overload, deep queue", serve.Policy{MaxBatch: 8, SLASeconds: 7e-3}, thenLull(1.6), 0.5},
	}
	refused, expired := 0, 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 9
			c, err := New(Config{
				Hosts: 1, DevicesPerHost: 1, Router: LeastLoaded,
				Apps: []AppConfig{{
					Name: "APP0", Service: svc, Policy: tc.policy, WeightBytes: 100 << 20, Curve: tc.curve,
				}},
				Autoscale: AutoscaleConfig{Disabled: true},
				Seed:      seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			a := c.apps[0]
			until := tc.horizon
			for c.Run(until); inSystem(a) > 0; c.Run(until) {
				if until += 1e-3; until > tc.horizon+5 {
					t.Fatalf("fleet never idle after %v s", tc.horizon)
				}
			}

			nhpp, err := workload.NewNHPP(tc.curve, seed*31+11)
			if err != nil {
				t.Fatal(err)
			}
			var arrivals []float64
			for at := nhpp.Next(); at <= until; at = nhpp.Next() {
				arrivals = append(arrivals, at)
			}
			lane := serve.Lane[latency.At](a.plan)
			run, err := latency.Drive(&lane, arrivals, svc)
			if err != nil {
				t.Fatal(err)
			}

			if int(a.Offered) != len(arrivals) || a.Errors != 0 || a.Failovers != 0 {
				t.Fatalf("fleet offered %d (errors %d, failovers %d), the NHPP drew %d", a.Offered, a.Errors, a.Failovers, len(arrivals))
			}
			if int(a.ShedQueue) != run.Refused || int(a.Expired) != run.Expired {
				t.Errorf("fleet shed %d at admission + %d at dispatch, scan driver %d + %d", a.ShedQueue, a.Expired, run.Refused, run.Expired)
			}
			refused += run.Refused
			expired += run.Expired
			lats := a.latencies.gather()
			if len(lats) != len(run.Latencies) {
				t.Fatalf("fleet completed %d, scan driver %d", len(lats), len(run.Latencies))
			}
			for i, lat := range lats {
				if lat != run.Latencies[i] {
					t.Fatalf("request %d: fleet latency %v, scan driver %v", i, lat, run.Latencies[i])
				}
			}
		})
	}
	if refused == 0 || expired == 0 {
		t.Errorf("cases never exercised both shed paths: %d refused, %d expired", refused, expired)
	}
}
