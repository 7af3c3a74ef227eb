// Package latency is the batching-server model behind Table 4: an open-loop
// arrival stream feeds a batching server, and the distribution of request
// latencies (queueing plus batch service) yields the p99 the paper's 7 ms
// application limit is checked against.
//
// "Larger batch sizes increase throughput, but their longer response times
// exceed the limit, so CPUs and GPUs must use less-efficient, smaller batch
// sizes (16 vs. 200)."
//
// The queueing rules live in one place, Lane, which every virtual-time
// simulator in the repo runs: Simulate and serve.Simulate through the
// arrival-scan driver (Drive), each cluster replica through des events.
package latency

import (
	"fmt"

	"tpusim/internal/stats"
)

// ServiceModel gives the time one batch of a given size takes to execute,
// including host overheads.
type ServiceModel interface {
	BatchSeconds(batch int) (float64, error)
}

// ServiceFunc adapts a function to ServiceModel.
type ServiceFunc func(batch int) (float64, error)

// BatchSeconds implements ServiceModel.
func (f ServiceFunc) BatchSeconds(batch int) (float64, error) { return f(batch) }

// Config drives one simulation.
type Config struct {
	// Batch is the maximum batch size the server assembles.
	Batch int
	// RatePerSecond is the offered load.
	RatePerSecond float64
	// Requests is the number of simulated requests.
	Requests int
	// Seed makes the arrival process deterministic.
	Seed int64
}

// Result summarizes one simulation.
type Result struct {
	// P99 is the 99th-percentile request latency in seconds (queue wait
	// plus service of the whole batch the request rode in).
	P99 float64
	// Throughput is achieved requests per second.
	Throughput float64
	// MeanBatch is the average assembled batch size; under light load
	// batches go out partially filled.
	MeanBatch float64
	// MaxQueue is the deepest the waiting queue got at a dispatch point —
	// the backlog a bounded-queue server would have needed to hold.
	MaxQueue int
}

// Simulate runs the batching queue: requests arrive open-loop; whenever the
// server is free it takes up to Batch waiting requests (at least one) and
// serves them together; a request's latency spans its arrival to its
// batch's completion. It is the Lane with no fill wait, no queue bound and
// no deadline, under the arrival-scan driver.
func Simulate(sm ServiceModel, cfg Config) (Result, error) {
	return simulate(sm, cfg, &Lane[At]{})
}

// simulate runs one simulation on a caller-owned lane, so a rate search
// reuses the lane's buffers across its probes.
func simulate(sm ServiceModel, cfg Config, l *Lane[At]) (Result, error) {
	if cfg.Batch <= 0 {
		return Result{}, fmt.Errorf("latency: non-positive batch %d", cfg.Batch)
	}
	l.Cap = cfg.Batch
	run, err := OpenLoop(l, sm, cfg.RatePerSecond, cfg.Requests, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	p99, err := stats.Percentiles(run.Latencies, 99)
	if err != nil {
		return Result{}, err
	}
	return Result{
		P99:        p99[0],
		Throughput: float64(cfg.Requests) / run.Span,
		MeanBatch:  float64(cfg.Requests) / float64(run.Batches),
		MaxQueue:   run.MaxQueue,
	}, nil
}

// price is the batch's service time, which must be positive.
func price(sm ServiceModel, batch int) (float64, error) {
	svc, err := sm.BatchSeconds(batch)
	if err == nil && svc <= 0 {
		err = fmt.Errorf("latency: non-positive service time %v for batch %d", svc, batch)
	}
	return svc, err
}

// Capacity returns the server's saturation throughput at a batch size.
func Capacity(sm ServiceModel, batch int) (float64, error) {
	svc, err := price(sm, batch)
	if err != nil {
		return 0, err
	}
	return float64(batch) / svc, nil
}

// MaxRateUnderSLA bisects the offered load to find the highest throughput
// whose p99 stays within the SLA at the given batch size. It returns the
// simulation at that operating point.
func MaxRateUnderSLA(sm ServiceModel, batch int, slaSeconds float64, requests int, seed int64) (Result, error) {
	svc, err := price(sm, batch)
	if err != nil {
		return Result{}, err
	}
	cap_ := float64(batch) / svc
	if svc > slaSeconds {
		// Even an empty queue misses the SLA at this batch size; probe a
		// single-request batch to see if any operating point exists.
		svc1, err := sm.BatchSeconds(1)
		if err != nil {
			return Result{}, err
		}
		if svc1 > slaSeconds {
			return Result{}, fmt.Errorf("latency: service time %v exceeds SLA %v even for batch 1", svc1, slaSeconds)
		}
	}
	lo, hi := cap_*0.01, cap_*0.999
	var best Result
	found := false
	lane := &Lane[At]{}
	for iter := 0; iter < 22; iter++ {
		mid := (lo + hi) / 2
		r, err := simulate(sm, Config{Batch: batch, RatePerSecond: mid, Requests: requests, Seed: seed}, lane)
		if err != nil {
			return Result{}, err
		}
		if r.P99 <= slaSeconds {
			best, found = r, true
			lo = mid
		} else {
			hi = mid
		}
	}
	if !found {
		return Result{}, fmt.Errorf("latency: no operating point meets %.1f ms p99 at batch %d", slaSeconds*1e3, batch)
	}
	return best, nil
}
