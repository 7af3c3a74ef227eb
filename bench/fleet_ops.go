package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"tpusim/internal/cluster"
	"tpusim/internal/compiler"
	"tpusim/internal/experiments"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/serve"
	load "tpusim/internal/workload"
)

// fleetOps uses the cluster layer the opposite way to fleet_pod: a small
// 8x4 fleet serving the six Table 1 apps with every controller on — the
// autoscaler, telemetry and the saturation report, a zone kill with retry
// budgets, a canary rollout with waves and rollback — and snapshots and
// reports in the loop. A hot-path change that wins fleet_pod by taxing
// controllers, telemetry or snapshots loses here.
//
// The ramp experiment runs at its acceptance defaults. The chaos and
// rollout campaigns run at a quarter of their default time base, which
// keeps a repetition near three seconds; their goldens are pinned at the
// full time base by the repository's own tests and are not compared here.
var fleetOps = workload{
	name: "fleet_ops",
	why:  "8x4 fleet, six apps, autoscaler, telemetry, zone kill and canary rollout: the same cluster layer as fleet_pod with every controller, snapshot and report in the loop",
	prepare: func(o options) (*plan, error) {
		golden, err := readGolden("cluster_saturation.txt")
		if err != nil {
			return nil, err
		}
		f := &opsInputs{seed: o.seed, golden: golden, ramp: 0.4, base: 0.1, warm: 0.02}
		if o.smoke {
			f.ramp, f.base, f.warm = 0.05, 0.02, 0.01
		}
		for _, b := range models.All() {
			f.maxBatch = max(f.maxBatch, b.Model.Batch)
		}
		return &plan{rep: f.rep, layers: f.layers}, nil
	},
}

// goldenSeed is the seed the repository's goldens are rendered at.
const goldenSeed = 42

type opsInputs struct {
	seed     int64
	golden   string  // cluster_saturation.txt
	ramp     float64 // RunCluster's ramp, virtual seconds; 0.4 is its default
	base     float64 // the chaos and rollout campaigns' time base
	warm     float64 // the warm-up ramp
	maxBatch int
	last     []*cluster.Snapshot // of the latest repetition
}

func (f *opsInputs) rep(r *rep) {
	// Set-up: a short ramp warms the device pool and the heap.
	if _, err := experiments.RunCluster(experiments.ClusterConfig{Seed: f.seed, RampSeconds: f.warm, NoKill: true}); !r.check("warm-up RunCluster", err) {
		return
	}

	r.begin()
	done := r.tr.push("experiments", "RunCluster")
	ramp, err := experiments.RunCluster(experiments.ClusterConfig{Seed: f.seed, RampSeconds: f.ramp, Trace: true})
	done()
	if !r.check("RunCluster", err) {
		return
	}
	done = r.tr.push("experiments", "RenderCluster")
	texts := []string{experiments.RenderCluster(ramp)}
	done()

	done = r.tr.push("experiments", "RunClusterChaos")
	chaos, err := experiments.RunClusterChaos(experiments.ClusterChaosConfig{Seed: f.seed, RampSeconds: f.base})
	done()
	if !r.check("RunClusterChaos", err) {
		return
	}
	done = r.tr.push("experiments", "RenderClusterChaos")
	texts = append(texts, experiments.RenderClusterChaos(chaos))
	done()

	done = r.tr.push("experiments", "RunRollout")
	rollout, err := experiments.RunRollout(experiments.RolloutConfig{Seed: f.seed, BaseSeconds: f.base})
	done()
	if !r.check("RunRollout", err) {
		return
	}
	done = r.tr.push("experiments", "RenderRollout")
	texts = append(texts, experiments.RenderRollout(rollout))
	done()

	snaps := []*cluster.Snapshot{ramp.Snap, chaos.Healthy, chaos.Chaos, chaos.Control, rollout.Healthy, rollout.Bad, rollout.Good}
	var events uint64
	for _, s := range snaps {
		events += s.EventsProcessed
	}
	r.end(int64(events))
	f.last = snaps

	for _, s := range snaps {
		checkConservation(r, s, f.maxBatch)
	}
	if f.seed == goldenSeed && f.ramp == 0.4 {
		if got := ramp.Report.Render(); got != f.golden {
			r.failf("saturation report differs from %s/cluster_saturation.txt", goldenDir)
		}
	}
	for i, text := range texts {
		r.stat(fmt.Sprintf("render.%d", i), fmt.Sprintf("%x", sha256.Sum256([]byte(text))))
	}
	// The campaigns' acceptance bounds are statistical properties of the
	// simulated fleet at their default time base and seed; here they are
	// simulated statistics, compared between commits through the digest.
	r.stat("chaos.violations", len(chaos.Acceptance()))
	r.stat("rollout.violations", len(rollout.Acceptance()))
	r.stat("events", events)
}

// opsFleet builds the ramp experiment's fleet: 8x4, the six Table 1 apps
// on the live TPU service model, autoscaler on.
func opsFleet(seed int64, ramp float64, tel *cluster.Telemetry) (*cluster.Cluster, error) {
	var apps []cluster.AppConfig
	for _, b := range models.All() {
		name := b.Model.Name
		svc := latency.ServiceFunc(func(n int) (float64, error) { return experiments.TPUBatchSeconds(name, n) })
		pol := serve.Policy{MaxBatch: b.Model.Batch, SLASeconds: 7e-3}
		plan, err := pol.Resolve(svc)
		if err != nil {
			return nil, err
		}
		one := float64(plan.SafeBatch) / plan.SafeServiceSeconds
		curve, err := load.NewPiecewiseLinear(load.Point{T: 0, Rate: 0.25 * one}, load.Point{T: ramp, Rate: 1.5 * one})
		if err != nil {
			return nil, err
		}
		apps = append(apps, cluster.AppConfig{
			Name: name, Service: svc, Policy: pol,
			WeightBytes: compiler.WeightFootprint(b.Model, false),
			Curve:       curve, InitialReplicas: 1, MinReplicas: 1,
		})
	}
	return cluster.New(cluster.Config{
		Hosts: 8, DevicesPerHost: 4, Router: cluster.BoundedHash, Apps: apps,
		Autoscale: cluster.AutoscaleConfig{Interval: ramp / 8},
		Seed:      seed, Telemetry: tel,
	})
}

func (f *opsInputs) layers(l *layerRun) {
	l.set("experiments.run_cluster_s", l.calls["experiments.RunCluster"].Total.Seconds())
	l.set("experiments.run_cluster_chaos_s", l.calls["experiments.RunClusterChaos"].Total.Seconds())
	l.set("experiments.run_rollout_s", l.calls["experiments.RunRollout"].Total.Seconds())
	setClusterCounts(l, f.last...)
	l.set("stats.percentile_us_30k", probePercentile(f.seed))
	setBareLoop(l)

	// Probes on the ramp fleet, built here so the controllers' outputs can
	// be called alone: the same run with telemetry off, then on.
	runFleet := func(tel *cluster.Telemetry) (*cluster.Cluster, time.Duration) {
		c, err := opsFleet(f.seed, f.ramp, tel)
		if !l.traced.check("probe fleet", err) {
			return nil, 0
		}
		t := time.Now()
		c.Run(f.ramp * 1.5)
		return c, time.Since(t)
	}
	_, off := runFleet(nil)
	metrics := cluster.NewFleetMetrics(f.ramp / 20)
	c, on := runFleet(&cluster.Telemetry{Metrics: metrics})
	if c == nil || off == 0 {
		return
	}
	l.set("cluster.telemetry_on_over_off_x", on.Seconds()/off.Seconds())
	l.set("cluster.snapshot_ms", probeNanos(5, 1, func() { c.Snapshot() })/1e6)
	l.set("cluster.saturation_report_ms", probeNanos(5, 1, func() {
		_, err := c.SaturationReport()
		l.traced.check("probe SaturationReport", err)
	})/1e6)
	l.set("cluster.prometheus_ms", probeNanos(5, 1, func() { metrics.Prometheus() })/1e6)
	const n = 200
	l.set("cluster.parse_plan_us", probeNanos(5, n, func() {
		for i := 0; i < n; i++ {
			_, err := cluster.ParseChaosPlan("zone-down=0@0.5,zone-up=0@0.8,part=4@0.55-0.7,slow=1x2.5@0.2,flap=3@0.1x4/0.05")
			l.traced.check("probe ParseChaosPlan", err)
			_, err = cluster.ParseRolloutPlan("start=0.2,factor=4,canary=0.1,windows=2,window=0.05,wave=2,drain=0.05")
			l.traced.check("probe ParseRolloutPlan", err)
		}
	})/1e3)
}
