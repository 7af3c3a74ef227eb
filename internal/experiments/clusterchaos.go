// Cluster chaos campaign: the six production apps of Table 1 served from
// a zoned TPU fleet while a full failure domain — a quarter of the hosts
// — dies at 75% load and later returns. The same seed is run three ways:
// a healthy baseline, the chaos run with the anti-retry-storm defenses on
// (zone-aware placement, per-app retry budgets, deadline-aware failover,
// the autoscaler's incident guard), and a NoBudget control that shows the
// metastable retry storm the budget prevents. The acceptance criteria are
// the robustness story in executable form: surviving apps hold p99 within
// 2x of healthy, client-visible errors stay under 1%, granted retries
// stay inside the budget, and the fleet fully recovers after the revive.
package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/cluster"
	"tpusim/internal/workload"
)

// The campaign's load bounds, as fractions of each app's initial rated
// capacity (two replicas x one replica's saturation rate): 25% -> 75%, so
// the fleet sits at 75% load when the zone goes dark and each surviving
// replica sees 150% overload until the autoscaler reacts.
const (
	clusterChaosStartFrac = 0.25
	clusterChaosPeakFrac  = 0.75
)

// ClusterChaosConfig parameterizes the campaign. Zero values mean the
// acceptance defaults: an 8x4 fleet in 4 zones, bounded-load hashing,
// retry budgets at the classic 10%/64, zone 0 killed at 75% load and
// revived one ramp later.
type ClusterChaosConfig struct {
	// Hosts and DevicesPerHost size the fleet. 0 means 8 x 4.
	Hosts, DevicesPerHost int
	// Zones is the failure-domain count. 0 means 4 (a zone = 1/4 of hosts).
	Zones int
	// Router names the routing policy. Empty means bounded-hash.
	Router string
	// RampSeconds is the load ramp length; the zone dies at 1.25x this,
	// revives at 2x, and the run ends at 2.75x. 0 means 0.4.
	RampSeconds float64
	// Seed pins arrivals and request keys. 0 means 42.
	Seed int64
	// ExtraChaos is an optional -chaos-plan spec layered on top of the
	// zone kill/revive in both chaos runs (e.g. "part=4@0.55-0.7").
	ExtraChaos string
}

// ZoneDownAt is the virtual time the zone dies: just past the ramp top,
// with the fleet at its peak load.
func (c ClusterChaosConfig) ZoneDownAt() float64 { return 1.25 * c.RampSeconds }

// ZoneUpAt is the virtual time the zone revives.
func (c ClusterChaosConfig) ZoneUpAt() float64 { return 2 * c.RampSeconds }

// Horizon is the campaign end: 0.75 ramps of recovered steady state after
// the revive.
func (c ClusterChaosConfig) Horizon() float64 { return 2.75 * c.RampSeconds }

// ClusterChaosResult is the campaign outcome: the same seed run healthy,
// defended, and undefended.
type ClusterChaosResult struct {
	Cfg ClusterChaosConfig
	// Apps are the served apps' profiles, Table 1 order; PeakRate is
	// 75% of the two-replica initial rated capacity.
	Apps []ClusterAppInfo
	// Skipped lists apps with no deadline-safe operating point at the SLA.
	Skipped []string
	// ZoneHosts are the killed zone's (zone 0's) host ids.
	ZoneHosts []int
	// Healthy is the no-chaos baseline's final snapshot.
	Healthy *cluster.Snapshot
	// Chaos is the defended run's final snapshot; ChaosAtRevive its state
	// at the instant the zone returned, for the recovery delta.
	Chaos, ChaosAtRevive *cluster.Snapshot
	// Control is the NoBudget storm run's final snapshot.
	Control *cluster.Snapshot
	// Events is the defended run's full ordered log.
	Events []cluster.Event
	// Incidents are the defended run's dead-or-partitioned intervals.
	Incidents []cluster.Incident
	// Report is the defended run's saturation analysis: the dark window's
	// saturated windows attributed to the incident, not a capacity knee.
	Report *cluster.SaturationReport
	// RecoveredCompletions counts batches completed on the killed zone's
	// hosts after the revive — the proof replicas re-admitted.
	RecoveredCompletions uint64
}

// RunClusterChaos runs the three-way campaign.
func RunClusterChaos(cfg ClusterChaosConfig) (*ClusterChaosResult, error) {
	f, err := newFleet(&cfg.Hosts, &cfg.DevicesPerHost, &cfg.Zones, &cfg.Router, &cfg.RampSeconds, &cfg.Seed)
	if err != nil {
		return nil, err
	}
	extra, err := cluster.ParseChaosPlan(cfg.ExtraChaos)
	if err != nil {
		return nil, err
	}
	res := &ClusterChaosResult{Cfg: cfg}
	for h := 0; h < cfg.Hosts; h++ {
		if h*cfg.Zones/cfg.Hosts == 0 {
			res.ZoneHosts = append(res.ZoneHosts, h)
		}
	}

	// Two replicas per app: zone anti-affinity places them in distinct
	// failure domains, so one dark zone leaves every app with quorum.
	const initialReplicas = 2
	res.Apps, res.Skipped, err = f.mix(initialReplicas, nil, func(one float64) (workload.Curve, float64, error) {
		rated := initialReplicas * one
		ramp, err := workload.NewPiecewiseLinear(
			workload.Point{T: 0, Rate: clusterChaosStartFrac * rated},
			workload.Point{T: cfg.RampSeconds, Rate: clusterChaosPeakFrac * rated},
		)
		return ramp, clusterChaosPeakFrac * rated, err
	})
	if err != nil {
		return nil, err
	}

	plan := cluster.ChaosPlan{Actions: append([]cluster.ChaosAction{
		{Kind: "zone-down", Target: 0, At: cfg.ZoneDownAt()},
		{Kind: "zone-up", Target: 0, At: cfg.ZoneUpAt()},
	}, extra.Actions...)}
	build := func(chaotic, noBudget bool) (*cluster.Cluster, error) {
		c, err := f.build(cluster.RetryConfig{Enabled: true, NoBudget: noBudget}, nil)
		if err != nil || !chaotic {
			return c, err
		}
		return c, c.ApplyChaos(plan)
	}

	// The three arms share only the read-only app configs and chaos plan,
	// so each runs its own cluster on a goroutine of its own.
	err = concurrently(
		// Healthy baseline: same seed, same defenses, no failures.
		func() error {
			healthy, err := build(false, false)
			if err != nil {
				return err
			}
			healthy.Run(cfg.Horizon())
			res.Healthy = healthy.Snapshot()
			return nil
		},
		// The defended chaos run, segmented at the revive for the recovery delta.
		func() error {
			defended, err := build(true, false)
			if err != nil {
				return err
			}
			defended.Run(cfg.ZoneUpAt())
			res.ChaosAtRevive = defended.Snapshot()
			defended.Run(cfg.Horizon())
			res.Chaos = defended.Snapshot()
			res.Events = defended.Events()
			res.Incidents = defended.Incidents()
			res.RecoveredCompletions = completedSince(res.ChaosAtRevive, res.Chaos, res.ZoneHosts)
			res.Report, err = defended.SaturationReport()
			return err
		},
		// The NoBudget control: the same failures with the storm defense off.
		func() error {
			control, err := build(true, true)
			if err != nil {
				return err
			}
			control.Run(cfg.Horizon())
			res.Control = control.Snapshot()
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// completedSince counts the batches completed on the given hosts between
// two snapshots of one run, replica by replica: a replica in both (matched
// by app, id and host) adds its growth, one placed after from adds all of
// its completions, and one gone by to adds nothing. An aggregate
// difference would wrap around when a replica listed in from is drained
// before to.
func completedSince(from, to *cluster.Snapshot, hosts []int) uint64 {
	type key struct {
		app      string
		id, host int
	}
	in := map[int]bool{}
	for _, h := range hosts {
		in[h] = true
	}
	before := map[key]uint64{}
	for _, r := range from.Replicas {
		if in[r.Host] {
			before[key{r.App, r.ID, r.Host}] = r.Completed
		}
	}
	var total uint64
	for _, r := range to.Replicas {
		if in[r.Host] {
			total += r.Completed - before[key{r.App, r.ID, r.Host}]
		}
	}
	return total
}

// totalRetries sums granted retries across apps.
func totalRetries(s *cluster.Snapshot) uint64 {
	var total uint64
	for _, a := range s.Apps {
		total += a.Retries
	}
	return total
}

// Acceptance evaluates the campaign's robustness criteria, returning one
// violation string per failed criterion (empty slice: all pass).
func (r *ClusterChaosResult) Acceptance() []string {
	var bad []string
	for i, a := range r.Chaos.Apps {
		h := r.Healthy.Apps[i]
		if a.ErrorRate >= 0.01 {
			bad = append(bad, fmt.Sprintf("%s error rate %.3f%% >= 1%% through the zone outage", a.Name, a.ErrorRate*100))
		}
		if h.P99Ms > 0 && a.P99Ms > 2*h.P99Ms {
			bad = append(bad, fmt.Sprintf("%s p99 %.3f ms > 2x healthy %.3f ms", a.Name, a.P99Ms, h.P99Ms))
		}
		budget := r.Chaos.BudgetRatio*float64(a.Offered) + r.Chaos.BudgetBurst
		if float64(a.Retries) > budget+1 {
			bad = append(bad, fmt.Sprintf("%s retries %d exceed the budget cap %.0f", a.Name, a.Retries, budget))
		}
	}
	if db, dc := totalRetries(r.Chaos), totalRetries(r.Control); dc <= db {
		bad = append(bad, fmt.Sprintf("NoBudget control retried %d <= defended %d: no storm to defend against", dc, db))
	}
	if r.Chaos.HostsAlive != r.Cfg.Hosts {
		bad = append(bad, fmt.Sprintf("%d/%d hosts alive at the end: revive incomplete", r.Chaos.HostsAlive, r.Cfg.Hosts))
	}
	if len(r.Chaos.DarkZones) != 0 {
		bad = append(bad, fmt.Sprintf("zones %v still dark at the end", r.Chaos.DarkZones))
	}
	for _, rep := range r.Chaos.Replicas {
		if rep.State.String() == "quarantined" && !rep.Draining {
			bad = append(bad, fmt.Sprintf("%s r%d still quarantined after the revive", rep.App, rep.ID))
		}
	}
	if r.RecoveredCompletions == 0 {
		bad = append(bad, "revived zone completed nothing: replicas never re-admitted")
	}
	return bad
}

// RenderClusterChaos formats the campaign report.
func RenderClusterChaos(r *ClusterChaosResult) string {
	var b strings.Builder
	cfg := r.Cfg
	fmt.Fprintf(&b, "Cluster chaos campaign: %d hosts x %d devices in %d zones, router=%s, seed=%d\n",
		cfg.Hosts, cfg.DevicesPerHost, cfg.Zones, cfg.Router, cfg.Seed)
	fmt.Fprintf(&b, "ramp %.0f%% -> %.0f%% of initial rated capacity over %.2fs; zone0 (%s, 1/%d of hosts) dark %.2fs -> %.2fs; horizon %.2fs\n",
		clusterChaosStartFrac*100, clusterChaosPeakFrac*100, cfg.RampSeconds,
		hostNames(r.ZoneHosts), cfg.Zones, cfg.ZoneDownAt(), cfg.ZoneUpAt(), cfg.Horizon())
	if cfg.ExtraChaos != "" {
		fmt.Fprintf(&b, "extra chaos: %s\n", cfg.ExtraChaos)
	}
	b.WriteString("\n")

	renderApps(&b, r.Apps, r.Skipped, "peak-load", "no operating point")

	// The three-way comparison: healthy / defended / storm control.
	b.WriteString("\nhealthy baseline vs defended chaos vs NoBudget storm control (same seed):\n")
	fmt.Fprintf(&b, "%-6s | %7s %7s | %7s %7s %8s %7s %7s | %8s %7s\n",
		"app", "h-p99", "h-err%", "c-p99", "c-err%", "c-shed%", "retries", "denied", "s-retry", "s-err%")
	for i, h := range r.Healthy.Apps {
		c, s := r.Chaos.Apps[i], r.Control.Apps[i]
		fmt.Fprintf(&b, "%-6s | %7.3f %6.3f%% | %7.3f %6.3f%% %7.2f%% %7d %7d | %8d %6.3f%%\n",
			h.Name, h.P99Ms, h.ErrorRate*100,
			c.P99Ms, c.ErrorRate*100, c.ShedFrac*100, c.Retries, c.BudgetDenied,
			s.Retries, s.ErrorRate*100)
	}
	fmt.Fprintf(&b, "total granted retries: defended %d vs NoBudget control %d\n",
		totalRetries(r.Chaos), totalRetries(r.Control))

	b.WriteString("\nincidents (defended run):\n")
	for i, in := range r.Incidents {
		fmt.Fprintf(&b, "  #%d %s\n", i+1, in)
	}
	fmt.Fprintf(&b, "completions on the revived zone's hosts after the revive: %d\n", r.RecoveredCompletions)

	fmt.Fprintf(&b, "\nevent log (defended run): %s\n", eventDigest(r.Events))

	renderAcceptance(&b, r.Acceptance(), "p99 <= 2x healthy, errors < 1%, retries within budget, full recovery, storm demonstrated")
	return b.String()
}

// hostNames joins host ids as host0+host1.
func hostNames(hosts []int) string {
	names := make([]string, len(hosts))
	for i, h := range hosts {
		names[i] = fmt.Sprintf("host%d", h)
	}
	return strings.Join(names, "+")
}
