package serve

import (
	"tpusim/internal/latency"
	"tpusim/internal/stats"
)

// SimConfig drives one virtual-time serving simulation.
type SimConfig struct {
	// Policy is the deadline-aware batching policy under test.
	Policy Policy
	// RatePerSecond is the open-loop offered load.
	RatePerSecond float64
	// Requests is the number of simulated arrivals.
	Requests int
	// Seed makes the Poisson arrival process deterministic.
	Seed int64
}

// SimResult summarizes one virtual-time simulation.
type SimResult struct {
	// Offered is the configured arrival rate.
	Offered float64
	// Completed and Shed partition the arrivals: every request is either
	// served within the SLA or shed. Shed = ShedQueue + Expired.
	Completed, Shed int
	// ShedQueue counts requests refused at admission (queue full), the
	// server's first line of overload defense.
	ShedQueue int
	// Expired counts requests shed at dispatch because they could no
	// longer make their deadline.
	Expired int
	// P99 is the 99th-percentile latency of completed requests in seconds.
	P99 float64
	// Throughput is completed requests per second of simulated span.
	Throughput float64
	// MeanBatch is the average dispatched batch size.
	MeanBatch float64
	// Batches counts dispatches that served at least one request.
	Batches int
}

// ShedFrac is the fraction of arrivals shed.
func (r SimResult) ShedFrac() float64 {
	total := r.Completed + r.Shed
	if total == 0 {
		return 0
	}
	return float64(r.Shed) / float64(total)
}

// Simulate replays the deadline-aware batcher in virtual time against an
// open-loop Poisson arrival stream: the resolved Plan's latency.Lane under
// the arrival-scan driver, so the decision sequence is the one every
// cluster replica and the wall-clock Server run:
//
//  1. Admission: an arrival joins the queue only if fewer than QueueLimit
//     requests are waiting; otherwise it is shed immediately. The bounded
//     queue keeps waiting time short enough that admitted requests can
//     still meet their deadline.
//  2. The dispatcher picks up the head request when the server is free.
//  3. It waits for the batch to fill, bounded by the plan's MaxWait from
//     the head request's arrival — never longer, because fill waiting
//     spends the same budget queueing already consumed.
//  4. It takes every admitted request at the dispatch point, up to the
//     deadline-safe batch size.
//  5. Requests that can no longer complete within the SLA are shed at
//     dispatch instead of served late, so the p99 of *served* requests is
//     bounded by construction and the shed count is the overload signal.
func Simulate(sm latency.ServiceModel, cfg SimConfig) (SimResult, error) {
	plan, err := cfg.Policy.Resolve(sm)
	if err != nil {
		return SimResult{}, err
	}
	lane := Lane[latency.At](plan)
	run, err := latency.OpenLoop(&lane, sm, cfg.RatePerSecond, cfg.Requests, cfg.Seed)
	if err != nil {
		return SimResult{}, err
	}
	res := SimResult{
		Offered:   cfg.RatePerSecond,
		Completed: len(run.Latencies), Shed: run.Refused + run.Expired,
		ShedQueue: run.Refused, Expired: run.Expired,
		Batches: run.Batches,
	}
	if res.Completed > 0 {
		p99, err := stats.Percentiles(run.Latencies, 99)
		if err != nil {
			return SimResult{}, err
		}
		res.P99 = p99[0]
		if run.Span > 0 {
			res.Throughput = float64(res.Completed) / run.Span
		}
		res.MeanBatch = float64(res.Completed) / float64(res.Batches)
	}
	return res, nil
}
