package main

import (
	"math/rand"
	"time"

	"tpusim/internal/baseline"
	"tpusim/internal/experiments"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/serve"
)

// queueSim is the paper's latency-bounded-throughput story: the Table 4
// grid, the SLA study over all six apps and the serving load sweep, driven
// through the public latency and serve simulators with the live service
// models. (experiments.SLAStudy and LoadSweepAll cache their result, so a
// second call would measure nothing.) It runs the batching model both ways
// — latency.Simulate's unbounded queue beside serve.Simulate's bounded,
// shedding one — so a change cannot speed one and slow the other unseen.
var queueSim = workload{
	name: "queue_sim",
	why:  "Table 4 path: virtual-time open-loop queue simulators over the perfmodel and baseline service models; device, kernel and cluster do none of the work",
	prepare: func(o options) (*plan, error) {
		golden, err := readGolden("table4.txt")
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(o.seed))
		q := &queueInputs{
			golden:      golden,
			slaSeed:     rng.Int63(),
			sweepSeed:   rng.Int63(),
			slaRequests: 2000, sweepRequests: 6000, warmRequests: 600,
			apps: models.All(),
		}
		if o.smoke {
			q.slaRequests, q.sweepRequests, q.warmRequests = 150, 300, 100
			q.apps = q.apps[:2]
			q.skipTable4 = true
		}
		return &plan{rep: q.rep, layers: q.layers}, nil
	},
}

type queueInputs struct {
	golden                                   string
	slaSeed, sweepSeed                       int64
	slaRequests, sweepRequests, warmRequests int
	apps                                     []models.Benchmark
	skipTable4                               bool       // smoke: Table 4 alone takes 0.4 s
	last                                     gridCounts // of the latest repetition
}

const (
	queueSLA = 7e-3
	// The served p99 may exceed the SLA by the simulator's own rounding slop.
	queueSLASlop = 1e-9
)

var sweepFracs = []float64{0.25, 0.5, 0.75, 1.0, 1.25}

// tracedModel is the latency.ServiceModel seam: under a tracer it charges
// every BatchSeconds call to the simulator span that made it.
type tracedModel struct {
	inner       latency.ServiceModel
	tr          *tracer
	layer, name string
}

func (m tracedModel) BatchSeconds(n int) (float64, error) {
	start := time.Now()
	s, err := m.inner.BatchSeconds(n)
	m.tr.leafCall(m.layer, m.name, start)
	return s, err
}

func traceModel(tr *tracer, layer, name string, sm latency.ServiceModel) latency.ServiceModel {
	if tr == nil {
		return sm
	}
	return tracedModel{sm, tr, layer, name}
}

// platforms returns the three live service models for one app.
func platforms(tr *tracer, b models.Benchmark) []latency.ServiceModel {
	cpu, gpu := baseline.CPU(), baseline.GPU()
	name := b.Model.Name
	return []latency.ServiceModel{
		traceModel(tr, "baseline", "BatchSeconds", latency.ServiceFunc(func(n int) (float64, error) { return cpu.BatchSeconds(b, n) })),
		traceModel(tr, "baseline", "BatchSeconds", latency.ServiceFunc(func(n int) (float64, error) { return gpu.BatchSeconds(b, n) })),
		traceModel(tr, "perfmodel", "Estimate", latency.ServiceFunc(func(n int) (float64, error) { return experiments.TPUBatchSeconds(name, n) })),
	}
}

// candidateBatches are the SLA study's batch sizes for one app.
func candidateBatches(prod int) []int {
	var out []int
	for _, b := range []int{8, 16, prod / 2, prod} {
		dup := b < 1
		for _, have := range out {
			dup = dup || have == b
		}
		if !dup {
			out = append(out, b)
		}
	}
	return out
}

// gridCounts are the exact counts of one pass over the grids: ops is the
// number of simulator calls that returned a result.
type gridCounts struct{ ops, shed, expired int64 }

// grid runs the SLA-study and load-sweep grids, recording failed checks on
// r and, with record set, the simulated statistics. A batch size with no
// operating point under the SLA is a simulated outcome, not a failure.
func (q *queueInputs) grid(r *rep, tr *tracer, slaRequests, sweepRequests int, record bool) gridCounts {
	var n gridCounts
	for _, b := range q.apps {
		name := b.Model.Name
		plats := platforms(tr, b)
		for pi, sm := range plats {
			for _, batch := range candidateBatches(b.Model.Batch) {
				done := tr.push("latency", "MaxRateUnderSLA")
				res, err := latency.MaxRateUnderSLA(sm, batch, queueSLA, slaRequests, q.slaSeed)
				done()
				if err != nil {
					continue
				}
				n.ops++
				if record {
					r.stat("sla."+name, []any{pi, batch, res.Throughput, res.P99, res.MeanBatch, res.MaxQueue})
				}
			}
		}
		sm := plats[2] // the load sweep serves on the TPU
		pol := serve.Policy{MaxBatch: b.Model.Batch, SLASeconds: queueSLA}
		done := tr.push("serve", "Policy.Resolve")
		plan, err := pol.Resolve(sm)
		done()
		if !r.check(name+": Policy.Resolve", err) {
			continue
		}
		capacity := float64(plan.SafeBatch) / plan.SafeServiceSeconds
		// The open-queue reference does not exist for every service shape
		// (CNN1: any queueing violates the SLA; only a shedding server holds it).
		done = tr.push("latency", "MaxRateUnderSLA")
		ref, err := latency.MaxRateUnderSLA(sm, plan.SafeBatch, queueSLA, sweepRequests, q.sweepSeed)
		done()
		if err == nil {
			n.ops++
			if record {
				r.stat("sweep.reference."+name, ref.Throughput)
			}
		}
		for _, frac := range sweepFracs {
			done := tr.push("serve", "Simulate")
			res, err := serve.Simulate(sm, serve.SimConfig{
				Policy: pol, RatePerSecond: frac * capacity, Requests: sweepRequests, Seed: q.sweepSeed,
			})
			done()
			if !r.check(name+": serve.Simulate", err) {
				continue
			}
			n.ops++
			n.shed += int64(res.ShedQueue)
			n.expired += int64(res.Expired)
			if !record {
				continue
			}
			if res.Completed+res.Shed != sweepRequests {
				r.failf("%s at %.0f%%: completed %d + shed %d != %d requests", name, frac*100, res.Completed, res.Shed, sweepRequests)
			}
			if res.P99 > queueSLA+queueSLASlop {
				r.failf("%s at %.0f%%: served p99 %.3f ms exceeds the %.0f ms SLA", name, frac*100, res.P99*1e3, queueSLA*1e3)
			}
			r.stat("sweep."+name, []any{frac, res.Completed, res.ShedQueue, res.Expired, res.P99, res.MeanBatch, res.Batches})
		}
	}
	return n
}

func (q *queueInputs) rep(r *rep) {
	// Set-up: the same grids at a fraction of the request count.
	q.grid(r, nil, q.warmRequests/3, q.warmRequests, false)

	r.begin()
	var ops int64
	var rows []experiments.Table4Row
	if !q.skipTable4 {
		done := r.tr.push("experiments", "Table4")
		var err error
		rows, err = experiments.Table4()
		done()
		if r.check("Table4", err) {
			ops += int64(len(rows))
		}
	}
	n := q.grid(r, r.tr, q.slaRequests, q.sweepRequests, true)
	r.end(ops + n.ops)
	q.last = n

	if !q.skipTable4 {
		if got := experiments.RenderTable4(rows); got != q.golden {
			r.failf("RenderTable4 differs from %s/table4.txt", goldenDir)
		}
		for _, row := range rows {
			r.stat("table4."+row.Platform, []any{row.Batch, row.P99Ms, row.IPS})
		}
	}
}

// layers reports where the traced repetition's time went: in the service
// models (leaf calls under the simulator spans) or in the simulators' own
// loops and percentile sorts (span self time).
func (q *queueInputs) layers(l *layerRun) {
	perf, base := l.calls["perfmodel.Estimate"], l.calls["baseline.BatchSeconds"]
	l.set("perfmodel.estimate_us", perf.meanMicros())
	l.set("perfmodel.calls", float64(perf.Calls))
	l.set("baseline.batch_seconds_us", base.meanMicros())
	l.set("baseline.calls", float64(base.Calls))
	l.set("perfmodel.service_share", (perf.Total+base.Total).Seconds()/l.traced.wall.Seconds()*100)
	maxRate := l.calls["latency.MaxRateUnderSLA"]
	l.set("latency.simulate_self_ms", millis(maxRate.Self))
	l.set("latency.max_rate_calls", float64(maxRate.Calls))
	l.set("serve.sim_shed", float64(q.last.shed))
	l.set("serve.sim_expired", float64(q.last.expired))
	l.set("perfmodel.max_err_pct", table7MaxErr(l))

	// Probes: each simulator alone on a constant service model, so neither
	// perfmodel nor baseline is in the measurement.
	requests := 30000
	if l.opts.smoke {
		requests = 300
	}
	constant := latency.ServiceFunc(func(n int) (float64, error) { return 0.5e-3 + 0.02e-3*float64(n), nil })
	l.set("latency.simulate_ns_per_req", probeNanos(5, requests, func() {
		_, err := latency.Simulate(constant, latency.Config{Batch: 64, RatePerSecond: 40000, Requests: requests, Seed: q.slaSeed})
		l.traced.check("probe latency.Simulate", err)
	}))
	l.set("serve.simulate_ns_per_req", probeNanos(5, requests, func() {
		_, err := serve.Simulate(constant, serve.SimConfig{
			Policy: serve.Policy{MaxBatch: 64, SLASeconds: queueSLA}, RatePerSecond: 40000, Requests: requests, Seed: q.slaSeed,
		})
		l.traced.check("probe serve.Simulate", err)
	}))
	l.set("stats.percentile_us_30k", probePercentile(q.slaSeed))
}
