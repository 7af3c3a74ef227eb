// Cluster scale-out experiment: the six production apps of Table 1 served
// from a simulated multi-host TPU fleet behind a front-end router, driven
// through a load ramp with a host killed mid-ramp. This is the paper's
// deployment frame made executable — "the TPU was designed to be a
// coprocessor" for fleets that "need responses in milliseconds" — with
// every app's service times from the Table 4 analytic model, its Weight
// Memory footprint from the compiler's exact tile accounting, and the
// serving plan, health machine, failover and autoscaler composed by
// internal/cluster on the discrete-event core.
package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"tpusim/internal/cluster"
	"tpusim/internal/compiler"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/obs"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// fleetSLASeconds is the per-request deadline every fleet campaign serves
// to: the paper's 7 ms.
const fleetSLASeconds = 7e-3

// The ramp experiment's load bounds, as fractions of each app's initial
// rated capacity: 25% -> 150%, so every app crosses its scale-up threshold.
const (
	clusterStartFrac = 0.25
	clusterPeakFrac  = 1.5
)

// ClusterConfig parameterizes the fleet experiment. Zero values mean the
// acceptance defaults: an 8x4 fleet, bounded-load hashing, a 25%->150%
// capacity ramp with host 0 hard-killed mid-ramp.
type ClusterConfig struct {
	// Hosts and DevicesPerHost size the fleet. 0 means 8 x 4.
	Hosts, DevicesPerHost int
	// Router names the routing policy ("wrr", "least-loaded",
	// "bounded-hash"). Empty means bounded-hash.
	Router string
	// RampSeconds is the virtual-time length of the load ramp; the run
	// holds peak load for another RampSeconds/2 after it. 0 means 0.4.
	RampSeconds float64
	// NoKill skips the mid-ramp host kill; otherwise host 0 dies at half
	// the ramp.
	NoKill bool
	// Seed pins arrivals and request keys. 0 means 42.
	Seed int64
	// Trace records the whole ramp — every dispatched batch with its member
	// requests, host kills, quarantines, autoscaler decisions — as
	// virtual-time spans, kept in ClusterResult.Trace for Chrome-trace
	// export.
	Trace bool
}

// ClusterAppInfo is one app's static serving profile in the experiment.
type ClusterAppInfo struct {
	Name string
	// DeployShare is Table 1's datacenter load share, context for the mix.
	DeployShare float64
	// WeightBytes is the compiler's exact Weight Memory footprint.
	WeightBytes int64
	// SafeBatch and ReplicaRate are the resolved operating point: largest
	// deadline-safe batch and one un-shared replica's saturation rate.
	SafeBatch   int
	ReplicaRate float64
	// PeakRate is the app's offered load at the top of the ramp.
	PeakRate float64
}

// ClusterResult is the experiment outcome.
type ClusterResult struct {
	Cfg ClusterConfig
	// Apps are the served apps' profiles, Table 1 order.
	Apps []ClusterAppInfo
	// Skipped lists apps with no deadline-safe operating point at the SLA
	// (dropped from the mix rather than failing the experiment).
	Skipped []string
	// KilledAt is the virtual time of the host kill, 0 if NoKill.
	KilledAt float64
	// Snap is the final fleet snapshot; Events the full ordered log.
	Snap   *cluster.Snapshot
	Events []cluster.Event
	// Report is the saturation analysis: per-app knee rate, bottleneck
	// attribution and SLO burn over the ramp's windowed series.
	Report *cluster.SaturationReport
	// Trace holds the recorded virtual-time trace when Cfg.Trace is set
	// (nil otherwise): its Spans builds the spans for obs.WriteChromeTrace.
	Trace *obs.Tracer
}

// fleet is what every arm of a fleet campaign builds its cluster from:
// the campaign's fleet shape with its defaults filled, its routing policy,
// autoscaler tick and app mix, and the time unit its telemetry windows
// are cut from.
type fleet struct {
	cfg  cluster.Config
	unit float64
}

// newFleet fills, in place, the fleet shape a campaign's config holds —
// each zero takes the acceptance default: an 8x4 fleet in 4 zones behind
// bounded-load hashing, a 0.4 s time unit and seed 42 — and parses its
// routing policy. The ramp has no failure domains and passes a nil zones.
func newFleet(hosts, devicesPerHost, zones *int, router *string, unit *float64, seed *int64) (*fleet, error) {
	*hosts = cmp.Or(*hosts, 8)
	*devicesPerHost = cmp.Or(*devicesPerHost, 4)
	*router = cmp.Or(*router, "bounded-hash")
	*unit = cmp.Or(*unit, 0.4)
	*seed = cmp.Or(*seed, 42)
	f := &fleet{unit: *unit, cfg: cluster.Config{
		Hosts:          *hosts,
		DevicesPerHost: *devicesPerHost,
		Seed:           *seed,
		// The short virtual horizon needs a snappy decision window: ~10
		// batch epochs per tick at the apps' millisecond service times.
		Autoscale: cluster.AutoscaleConfig{Interval: *unit / 8},
	}}
	if zones != nil {
		*zones = cmp.Or(*zones, 4)
		f.cfg.Zones = *zones
	}
	var err error
	f.cfg.Router, err = cluster.ParsePolicy(*router)
	return f, err
}

// mix sets the app mix every fleet campaign serves: Table 1's six models,
// each priced by the Table 4 analytic model and resolved to its
// deadline-safe operating point at the fleet SLA, starting at the given
// replica count. load turns one un-shared replica's saturation rate into the app's
// offered-load curve and its peak. An app with no operating point at the
// SLA (CNN1 under tight deadlines), or one the optional keep predicate
// turns down, is dropped from the mix and named in skipped rather than
// failing the experiment; the fleet serves the apps that remain.
func (f *fleet) mix(replicas int, keep func(serve.Plan) bool,
	load func(one float64) (curve workload.Curve, peak float64, err error),
) (info []ClusterAppInfo, skipped []string, err error) {
	for _, b := range models.All() {
		name := b.Model.Name
		svc := latency.ServiceFunc(func(n int) (float64, error) { return TPUBatchSeconds(name, n) })
		pol := serve.Policy{MaxBatch: b.Model.Batch, SLASeconds: fleetSLASeconds}
		plan, err := pol.Resolve(svc)
		if err != nil || (keep != nil && !keep(plan)) {
			skipped = append(skipped, name)
			continue
		}
		one := float64(plan.SafeBatch) / plan.SafeServiceSeconds
		curve, peak, err := load(one)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: %s load curve: %w", name, err)
		}
		weights := compiler.WeightFootprint(b.Model, false)
		info = append(info, ClusterAppInfo{
			Name:        name,
			DeployShare: b.DeployShare,
			WeightBytes: weights,
			SafeBatch:   plan.SafeBatch,
			ReplicaRate: one,
			PeakRate:    peak,
		})
		f.cfg.Apps = append(f.cfg.Apps, cluster.AppConfig{
			Name:            name,
			Service:         svc,
			Policy:          pol,
			WeightBytes:     weights,
			Curve:           curve,
			InitialReplicas: replicas,
			MinReplicas:     replicas,
		})
	}
	if len(f.cfg.Apps) == 0 {
		return nil, nil, fmt.Errorf("experiments: no app has an operating point at SLA %.1f ms", fleetSLASeconds*1e3)
	}
	return info, skipped, nil
}

// build makes one arm's cluster. Arms differ only in their retry policy
// and tracer; all share the read-only app configs, so each can run on a
// goroutine of its own. Fleet observability rides along on every arm: the
// registry's sampler tick only reads simulator state, so the snapshot and
// event log are byte-identical to an uninstrumented run, and 20 windows
// per time unit give the knee detector resolution without starving each
// window of arrivals. A tracer keeps every 4th batch (with its member
// requests), so a ramp's spans fit its ring and nothing is evicted; host
// kills, quarantines and autoscaler decisions are always recorded.
func (f *fleet) build(retry cluster.RetryConfig, tracer *obs.Tracer) (*cluster.Cluster, error) {
	cfg := f.cfg
	cfg.Retry = retry
	cfg.Telemetry = &cluster.Telemetry{
		Metrics:     cluster.NewFleetMetrics(f.unit / 20),
		Tracer:      tracer,
		SampleEvery: 4,
	}
	return cluster.New(cfg)
}

// RunCluster builds the six-app fleet and drives it through the ramp.
// Each app's load curve ramps from 25% to 150% of its own initial rated
// capacity, so every app — not just the big MLPs — crosses
// its scale-up threshold and the autoscaler must act while a host dies.
func RunCluster(cfg ClusterConfig) (*ClusterResult, error) {
	f, err := newFleet(&cfg.Hosts, &cfg.DevicesPerHost, nil, &cfg.Router, &cfg.RampSeconds, &cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{Cfg: cfg}
	res.Apps, res.Skipped, err = f.mix(1, nil, func(one float64) (workload.Curve, float64, error) {
		ramp, err := workload.NewPiecewiseLinear(
			workload.Point{T: 0, Rate: clusterStartFrac * one},
			workload.Point{T: cfg.RampSeconds, Rate: clusterPeakFrac * one},
		)
		return ramp, clusterPeakFrac * one, err
	})
	if err != nil {
		return nil, err
	}
	// The trace is opt-in: it holds every sampled batch span in memory.
	var tracer *obs.Tracer
	if cfg.Trace {
		tracer = obs.NewTracer(1 << 18)
	}
	c, err := f.build(cluster.RetryConfig{}, tracer)
	if err != nil {
		return nil, err
	}
	if !cfg.NoKill {
		res.KilledAt = cfg.RampSeconds / 2
		kill := cluster.ChaosAction{Kind: "kill", Target: 0, At: res.KilledAt}
		if err := c.ApplyChaos(cluster.ChaosPlan{Actions: []cluster.ChaosAction{kill}}); err != nil {
			return nil, err
		}
	}
	c.Run(cfg.RampSeconds * 1.5) // ramp, then hold peak for half a ramp
	res.Snap = c.Snapshot()
	res.Events = c.Events()
	if res.Report, err = c.SaturationReport(); err != nil {
		return nil, err
	}
	if tracer != nil {
		// Detach the finished run's virtual clock, which would keep the
		// whole cluster reachable from the trace.
		tracer.SetClock(nil)
		res.Trace = tracer
	}
	return res, nil
}

// RenderCluster formats the experiment report.
func RenderCluster(r *ClusterResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cluster scale-out: %d hosts x %d devices, router=%s, seed=%d\n",
		r.Cfg.Hosts, r.Cfg.DevicesPerHost, r.Cfg.Router, r.Cfg.Seed)
	fmt.Fprintf(&b, "ramp %.0f%% -> %.0f%% of initial rated capacity over %.2fs virtual, hold %.2fs",
		clusterStartFrac*100, clusterPeakFrac*100, r.Cfg.RampSeconds, r.Cfg.RampSeconds/2)
	if r.KilledAt > 0 {
		fmt.Fprintf(&b, ", host0 killed at %.2fs", r.KilledAt)
	}
	b.WriteString("\n\n")
	renderApps(&b, r.Apps, r.Skipped, "peak-load", "no operating point")
	b.WriteString("\n")
	b.WriteString(r.Snap.Render())
	// Digest the event log by kind: the log itself is pinned by tests.
	fmt.Fprintf(&b, "\nevent log: %s\n", eventDigest(r.Events))
	return b.String()
}

// renderApps writes a fleet campaign's app table: each served app's
// operating point and offered load, under the given load column heading,
// then the apps the mix skipped and why.
func renderApps(b *strings.Builder, apps []ClusterAppInfo, skipped []string, load, why string) {
	fmt.Fprintf(b, "%-6s %7s %10s %6s %12s %12s\n",
		"app", "share", "weights", "batch", "replica-cap", load)
	for _, a := range apps {
		fmt.Fprintf(b, "%-6s %6.1f%% %8.1fMiB %6d %10.0f/s %10.0f/s\n",
			a.Name, a.DeployShare, float64(a.WeightBytes)/(1<<20), a.SafeBatch, a.ReplicaRate, a.PeakRate)
	}
	if len(skipped) > 0 {
		fmt.Fprintf(b, "skipped (%s at %.1f ms SLA): %s\n", why, fleetSLASeconds*1e3, strings.Join(skipped, ", "))
	}
}

// renderAcceptance writes a campaign's verdict: PASS with the criteria it
// checked, or FAIL with one line per violation.
func renderAcceptance(b *strings.Builder, violations []string, criteria string) {
	if len(violations) == 0 {
		fmt.Fprintf(b, "\nacceptance: PASS (%s)\n", criteria)
		return
	}
	b.WriteString("\nacceptance: FAIL\n")
	for _, v := range violations {
		fmt.Fprintf(b, "  - %s\n", v)
	}
}
