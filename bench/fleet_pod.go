package main

import (
	"crypto/sha256"
	"fmt"

	"tpusim/internal/cluster"
	"tpusim/internal/latency"
	"tpusim/internal/serve"
	load "tpusim/internal/workload"
)

// fleetPod is the 1000-device pod of BenchmarkClusterSim: ten virtual
// seconds of steady load with every controller off. The des calendar and
// the cluster's route, enqueue, dispatch and complete path do the timed
// work; building the pod (placement and the routers' rings) is set-up, and
// takes as long as the run it sets up.
var fleetPod = workload{
	name: "fleet_pod",
	why:  "1000-device pod, steady load, controllers off: the des calendar and the cluster hot path do the timed work, cluster.New the set-up",
	prepare: func(o options) (*plan, error) {
		f := &podInputs{hosts: 250, apps: 10, replicas: 100, virtualSeconds: 10, seed: o.seed}
		if o.smoke {
			f.hosts, f.apps, f.replicas, f.virtualSeconds = 10, 2, 10, 1
		}
		return &plan{rep: f.rep, layers: f.layers}, nil
	},
}

type podInputs struct {
	hosts, apps, replicas int
	virtualSeconds        float64
	seed                  int64
	last                  struct { // of the latest repetition
		snap         *cluster.Snapshot
		runAllocs    uint64
		serviceCalls int64
	}
}

const podMaxBatch = 64

func (f *podInputs) config(tr *tracer) cluster.Config {
	apps := make([]cluster.AppConfig, f.apps)
	for i := range apps {
		svc := latency.ServiceFunc(func(n int) (float64, error) { return 0.5e-3 + 0.1e-3*float64(n), nil })
		apps[i] = cluster.AppConfig{
			Name:            fmt.Sprintf("APP%d", i),
			Service:         traceModel(tr, "cluster", "Service.BatchSeconds", svc),
			Policy:          serve.Policy{MaxBatch: podMaxBatch, SLASeconds: 7e-3},
			WeightBytes:     256 << 20,
			Curve:           load.Constant(4000),
			InitialReplicas: f.replicas,
		}
	}
	return cluster.Config{
		Hosts: f.hosts, DevicesPerHost: 4,
		Router:    cluster.BoundedHash,
		Apps:      apps,
		Autoscale: cluster.AutoscaleConfig{Disabled: true},
		Seed:      f.seed,
	}
}

func (f *podInputs) rep(r *rep) {
	done := r.tr.push("cluster", "New")
	c, err := cluster.New(f.config(r.tr))
	done()
	if !r.check("cluster.New", err) {
		return
	}

	r.begin()
	if r.tr == nil {
		c.Run(f.virtualSeconds)
	} else {
		// Ten slices, so the trace shows the run's progress; the calendar
		// composes RunUntil segments without changing the event order.
		for i := 1; i <= 10; i++ {
			done := r.tr.push("cluster", "Run")
			c.Run(f.virtualSeconds * float64(i) / 10)
			done()
		}
	}
	r.end(int64(c.EventsProcessed()))
	f.last.runAllocs = r.m1.Mallocs - r.m0.Mallocs

	done = r.tr.push("cluster", "Snapshot")
	snap := c.Snapshot()
	done()
	done = r.tr.push("cluster", "Snapshot.Render")
	text := snap.Render()
	done()
	f.last.snap = snap
	checkConservation(r, snap, podMaxBatch)
	r.stat("events", snap.EventsProcessed)
	r.stat("snapshot", fmt.Sprintf("%x", sha256.Sum256([]byte(text))))
}

// checkConservation checks that every offered request is accounted for
// exactly once: completed, shed, expired, failed, or still resident. The
// snapshot does not expose in-flight batches, so residency is bounded: at
// least the queued requests, at most those plus one batch per replica and
// the requests black-holed behind a partition.
func checkConservation(r *rep, s *cluster.Snapshot, maxBatch int) {
	queued := map[string]uint64{}
	replicas := map[string]uint64{}
	for _, rep := range s.Replicas {
		queued[rep.App] += uint64(rep.QueueLen)
		replicas[rep.App]++
	}
	for _, a := range s.Apps {
		resolved := a.Completed + a.ShedQueue + a.Expired + a.Errors
		if resolved > a.Offered {
			r.failf("%s: resolved %d requests of %d offered", a.Name, resolved, a.Offered)
			continue
		}
		resident := a.Offered - resolved
		if lo, hi := queued[a.Name], queued[a.Name]+replicas[a.Name]*uint64(maxBatch)+a.Blackholed; resident < lo || resident > hi {
			r.failf("%s: %d requests unaccounted for, want between %d (queued) and %d (queued + in flight)", a.Name, resident, lo, hi)
		}
	}
}

// setClusterCounts reports the simulated counts summed over snapshots;
// they are exact and must not move on a speed-only change.
func setClusterCounts(l *layerRun, snaps ...*cluster.Snapshot) {
	var events, offered, completed, shed, expired, errors, failovers, retries uint64
	for _, s := range snaps {
		events += s.EventsProcessed
		for _, a := range s.Apps {
			offered += a.Offered
			completed += a.Completed
			shed += a.ShedQueue
			expired += a.Expired
			errors += a.Errors
			failovers += a.Failovers
			retries += a.Retries
		}
	}
	l.set("cluster.events", float64(events))
	l.set("cluster.offered", float64(offered))
	l.set("cluster.completed", float64(completed))
	l.set("cluster.shed", float64(shed))
	l.set("cluster.expired", float64(expired))
	l.set("cluster.errors", float64(errors))
	l.set("cluster.failovers", float64(failovers))
	l.set("cluster.retries", float64(retries))
}

func (f *podInputs) layers(l *layerRun) {
	events := float64(l.traced.ops)
	run := l.calls["cluster.Run"]
	service := l.calls["cluster.Service.BatchSeconds"]
	l.set("cluster.new_s", l.calls["cluster.New"].Total.Seconds())
	l.set("cluster.run_ns_per_event", float64(run.Total.Nanoseconds())/events)
	l.set("cluster.allocs_per_event", float64(f.last.runAllocs)/events)
	l.set("cluster.service_calls", float64(service.Calls))
	setClusterCounts(l, f.last.snap)

	bareNanos := setBareLoop(l)
	// Ratio of cluster time per event to the bare loop's (the base).
	l.set("cluster.over_des_x", float64(run.Total.Nanoseconds())/events/bareNanos)

	// Router probes on one app's replica set.
	l.set("cluster.router_add_us", probeNanos(5, f.replicas, func() { newRouter(l, cluster.BoundedHash, f.replicas) })/1e3)
	for _, policy := range []cluster.RouterPolicy{cluster.BoundedHash, cluster.LeastLoaded, cluster.WeightedRoundRobin} {
		router := newRouter(l, policy, f.replicas)
		const n = 100_000
		key := uint64(f.seed)
		l.set("cluster.router_route_ns."+policy.String(), probeNanos(5, n, func() {
			for i := 0; i < n; i++ {
				key = key*6364136223846793005 + 1442695040888963407
				if _, ok := router.Route(key); !ok {
					l.traced.failf("probe: %s router found no replica", policy)
					return
				}
			}
		}))
	}
}

func newRouter(l *layerRun, policy cluster.RouterPolicy, replicas int) *cluster.Router {
	router := cluster.NewRouter(policy)
	for id := 0; id < replicas; id++ {
		l.traced.check("probe Router.Add", router.Add(id, 1))
	}
	return router
}
