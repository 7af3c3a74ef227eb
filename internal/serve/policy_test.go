package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tpusim/internal/latency"
)

// linearService models batch time as fixed + perItem*batch, the shape of
// every platform's BatchSeconds in this repo.
func linearService(fixedSec, perItem float64) latency.ServiceModel {
	return latency.ServiceFunc(func(n int) (float64, error) {
		if n <= 0 {
			return 0, fmt.Errorf("bad batch %d", n)
		}
		return fixedSec + perItem*float64(n), nil
	})
}

func TestResolveFindsLargestSafeBatch(t *testing.T) {
	// svc(b) = 1ms + 0.05ms*b; SLA 7ms -> safe batch = 120, capped at MaxBatch.
	sm := linearService(1e-3, 0.05e-3)
	plan, err := Policy{MaxBatch: 200, SLASeconds: 7e-3}.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SafeBatch != 120 {
		t.Errorf("safe batch = %d, want 120", plan.SafeBatch)
	}
	if plan.SafeServiceSeconds > 7e-3+slaSlop {
		t.Errorf("safe service %.4f ms exceeds SLA", plan.SafeServiceSeconds*1e3)
	}
	// MaxBatch caps the result even when larger batches would be safe.
	plan, err = Policy{MaxBatch: 64, SLASeconds: 7e-3}.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SafeBatch != 64 {
		t.Errorf("safe batch = %d, want MaxBatch 64", plan.SafeBatch)
	}
}

func TestResolveDerivesDefaults(t *testing.T) {
	sm := linearService(1e-3, 0.01e-3)
	plan, err := Policy{MaxBatch: 100, SLASeconds: 7e-3}.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	wantWait := (7e-3 - plan.SafeServiceSeconds) / 2
	if math.Abs(plan.MaxWaitSeconds-wantWait) > 1e-12 {
		t.Errorf("derived wait %.4f ms, want %.4f ms", plan.MaxWaitSeconds*1e3, wantWait*1e3)
	}
	// svc(100) = 2 ms against a 7 ms SLA: a backlog of two safe batches can
	// still drain inside the deadline ((2+1)*2 ms <= 7 ms), a third cannot.
	if plan.QueueLimit != 2*plan.SafeBatch {
		t.Errorf("derived queue limit %d, want %d", plan.QueueLimit, 2*plan.SafeBatch)
	}
	// A tiny service time caps the backlog at four safe batches.
	fast, err := Policy{MaxBatch: 100, SLASeconds: 7e-3}.Resolve(linearService(1e-4, 1e-7))
	if err != nil {
		t.Fatal(err)
	}
	if fast.QueueLimit != 4*fast.SafeBatch {
		t.Errorf("fast-service queue limit %d, want cap %d", fast.QueueLimit, 4*fast.SafeBatch)
	}
	// A service time near the SLA still allows one batch of backlog.
	tight, err := Policy{MaxBatch: 32, SLASeconds: 7e-3}.Resolve(linearService(4.2e-3, 0.26e-3))
	if err != nil {
		t.Fatal(err)
	}
	if tight.QueueLimit != tight.SafeBatch {
		t.Errorf("tight-service queue limit %d, want one batch %d", tight.QueueLimit, tight.SafeBatch)
	}
	// An explicit fill wait passes through untouched.
	plan, err = Policy{MaxBatch: 100, SLASeconds: 7e-3, MaxWaitSeconds: 1e-3}.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxWaitSeconds != 1e-3 {
		t.Errorf("explicit fill wait overridden: %+v", plan)
	}
}

func TestResolveDowngradesOversizedBatch(t *testing.T) {
	// CNN1's situation: production batch service blows the SLA, so the
	// batcher must downsize rather than violate the deadline.
	sm := linearService(4.2e-3, 0.26e-3) // svc(32) ~ 12.5ms, svc(10) ~ 6.8ms
	plan, err := Policy{MaxBatch: 32, SLASeconds: 7e-3}.Resolve(sm)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SafeBatch >= 32 {
		t.Errorf("safe batch %d should be downsized below the production 32", plan.SafeBatch)
	}
	if plan.SafeServiceSeconds > 7e-3+slaSlop {
		t.Errorf("safe service %.2f ms exceeds SLA", plan.SafeServiceSeconds*1e3)
	}
	// One batch more must violate: the resolved batch is maximal.
	over, err := sm.BatchSeconds(plan.SafeBatch + 1)
	if err != nil {
		t.Fatal(err)
	}
	if over <= 7e-3 {
		t.Errorf("batch %d also fits (%.2f ms); safe batch not maximal", plan.SafeBatch+1, over*1e3)
	}
}

func TestResolveRejectsImpossibleSLA(t *testing.T) {
	sm := linearService(10e-3, 0.1e-3) // svc(1) > 7ms
	_, err := Policy{MaxBatch: 16, SLASeconds: 7e-3}.Resolve(sm)
	if err == nil || !strings.Contains(err.Error(), "no deadline-safe operating point") {
		t.Errorf("want no-operating-point error, got %v", err)
	}
}

func TestPolicyValidate(t *testing.T) {
	bad := []Policy{
		{MaxBatch: 0, SLASeconds: 7e-3},
		{MaxBatch: 8, SLASeconds: 0},
		{MaxBatch: 8, SLASeconds: 7e-3, MaxWaitSeconds: -1},
		// NaN fails every comparison and must not pass for a valid number.
		{MaxBatch: 8, SLASeconds: math.NaN()},
		{MaxBatch: 8, SLASeconds: math.Inf(1)},
		{MaxBatch: 8, SLASeconds: math.Inf(-1)},
		{MaxBatch: 8, SLASeconds: 7e-3, MaxWaitSeconds: math.NaN()},
		{MaxBatch: 8, SLASeconds: 7e-3, MaxWaitSeconds: math.Inf(1)},
		{MaxBatch: 8, SLASeconds: 7e-3, MaxWaitSeconds: math.Inf(-1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("policy %d (%+v) accepted", i, p)
		}
	}
	if err := (Policy{MaxBatch: 8, SLASeconds: 7e-3}).Validate(); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestResolveErrorPaths(t *testing.T) {
	failing := latency.ServiceFunc(func(n int) (float64, error) { return 0, fmt.Errorf("boom") })
	if _, err := (Policy{MaxBatch: 8, SLASeconds: 7e-3}).Resolve(failing); err == nil {
		t.Error("service error not propagated")
	}
	zero := latency.ServiceFunc(func(n int) (float64, error) { return 0, nil })
	if _, err := (Policy{MaxBatch: 8, SLASeconds: 7e-3}).Resolve(zero); err == nil {
		t.Error("zero service time accepted")
	}
}

func TestExpired(t *testing.T) {
	plan := Plan{SLASeconds: 7e-3}
	if plan.Expired(0, 1e-3, 5e-3) {
		t.Error("6 ms total flagged as expired under a 7 ms SLA")
	}
	if !plan.Expired(0, 3e-3, 5e-3) {
		t.Error("8 ms total not flagged")
	}
}
