package serve

import (
	"fmt"
	"math"

	"tpusim/internal/latency"
)

// slaSlop absorbs float rounding when comparing latencies against the SLA.
const slaSlop = latency.SLASlop

// Policy is the per-model serving policy. A zero MaxWaitSeconds is resolved
// from the latency model, and the admission bound always is (see Resolve);
// MaxBatch and SLASeconds must be set.
type Policy struct {
	// MaxBatch is the upper bound on assembled batch size, typically the
	// model's production batch (Table 1). The resolved deadline-safe batch
	// never exceeds it.
	MaxBatch int
	// SLASeconds is the 99th-percentile response-time bound; the paper's
	// applications use 7 ms.
	SLASeconds float64
	// MaxWaitSeconds bounds how long the head-of-line request waits for
	// the batch to fill. 0 derives half the slack left after serving a
	// safe batch, so fill waiting alone can never spend the whole budget.
	MaxWaitSeconds float64
}

// Plan is a Policy resolved against a concrete latency model: the concrete
// numbers the batcher runs with.
type Plan struct {
	// SafeBatch is the largest batch whose service time alone fits in the
	// SLA. Dispatching more than this is never admissible.
	SafeBatch int
	// SafeServiceSeconds is the service time of a SafeBatch-sized batch.
	SafeServiceSeconds float64
	// MaxWaitSeconds is the resolved head-of-line fill wait.
	MaxWaitSeconds float64
	// QueueLimit is the admission bound: the largest backlog (in safe
	// batches, capped at four) that can still drain within the SLA, so
	// admitted requests are rarely doomed to expire at dispatch.
	QueueLimit int
	// SLASeconds echoes the policy's deadline.
	SLASeconds float64
}

// Validate checks the fields a caller must set.
func (p Policy) Validate() error {
	if p.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch %d, need >= 1", p.MaxBatch)
	}
	// NaN fails every comparison, so each check admits the valid range
	// instead of refusing the invalid one.
	if !(p.SLASeconds > 0 && p.SLASeconds <= math.MaxFloat64) {
		return fmt.Errorf("serve: SLASeconds %v, need a positive finite number", p.SLASeconds)
	}
	if !(p.MaxWaitSeconds >= 0 && p.MaxWaitSeconds <= math.MaxFloat64) {
		return fmt.Errorf("serve: MaxWaitSeconds %v, need a finite number >= 0", p.MaxWaitSeconds)
	}
	return nil
}

// Resolve sizes the policy against a latency model. It finds the largest
// deadline-safe batch by binary search (batch service time is nondecreasing
// in batch size), then derives the fill wait and queue bound. It fails if
// even a single-request batch cannot meet the SLA — no operating point
// exists, and serving would only burn capacity on doomed work.
func (p Policy) Resolve(sm latency.ServiceModel) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	svc1, err := sm.BatchSeconds(1)
	if err != nil {
		return Plan{}, err
	}
	if svc1 <= 0 {
		return Plan{}, fmt.Errorf("serve: non-positive service time %v for batch 1", svc1)
	}
	if svc1 > p.SLASeconds+slaSlop {
		return Plan{}, fmt.Errorf("serve: batch-1 service %.3f ms exceeds SLA %.3f ms; no deadline-safe operating point",
			svc1*1e3, p.SLASeconds*1e3)
	}
	// Largest b in [1, MaxBatch] with svc(b) <= SLA.
	lo, hi := 1, p.MaxBatch // invariant: svc(lo) <= SLA
	safeSvc := svc1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		svc, err := sm.BatchSeconds(mid)
		if err != nil {
			return Plan{}, err
		}
		if svc <= p.SLASeconds+slaSlop {
			lo, safeSvc = mid, svc
		} else {
			hi = mid - 1
		}
	}
	plan := Plan{
		SafeBatch:          lo,
		SafeServiceSeconds: safeSvc,
		MaxWaitSeconds:     p.MaxWaitSeconds,
		SLASeconds:         p.SLASeconds,
	}
	if plan.MaxWaitSeconds == 0 {
		plan.MaxWaitSeconds = (p.SLASeconds - safeSvc) / 2
	}
	// A request admitted into a queue of q safe batches waits at most the
	// in-flight batch's remainder plus q service times before its own batch
	// completes: latency <= (q+1)*svc. Bounding q at floor(SLA/svc - 1)
	// keeps that inside the SLA; the cap of four batches bounds memory when
	// svc is tiny relative to the SLA, and the floor of one batch lets full
	// batches assemble even when the service time alone nearly fills the
	// deadline (then the shed-at-dispatch check is the safety net).
	q := min(max(int(p.SLASeconds/safeSvc-1), 1), 4)
	plan.QueueLimit = q * plan.SafeBatch
	return plan, nil
}

// Expired reports whether a request that arrived at arr and would complete
// at start+svc violates the SLA — the lane's shed-at-dispatch decision,
// which the cluster's failover check asks of a request outside any lane.
func (p Plan) Expired(arr, start, svc float64) bool {
	return latency.Late(arr, start, svc, p.SLASeconds)
}

// Lane returns an empty batching lane that runs on the plan's numbers.
func Lane[R latency.Arrival](p Plan) latency.Lane[R] {
	return latency.Lane[R]{Cap: p.SafeBatch, MaxWait: p.MaxWaitSeconds, Limit: p.QueueLimit, SLA: p.SLASeconds}
}
