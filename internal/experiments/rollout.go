// Safe change management campaign: the production apps of Table 1 are
// taken from model version v1 to v2 by the rollout controller — cordon,
// graceful drain, re-place, canary analysis, wave-by-wave promotion —
// with the fleet held at 75% of rated load. The same seed is run three
// ways: a healthy baseline with no change in flight, a bad v2 whose
// inflated service time must be caught at the canary stage and fully
// rolled back, and a good v2 that must converge to 100% of the fleet
// with no SLO error-budget burn. The acceptance criteria are the safe
// change management story in executable form: the blast radius of a bad
// version is the canary fraction, never the fleet.
package experiments

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"tpusim/internal/cluster"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// rolloutLoadFrac is the steady offered load as a fraction of each app's
// initial rated capacity (two replicas x one replica's saturation rate).
const rolloutLoadFrac = 0.75

// RolloutConfig parameterizes the campaign. Zero values mean the
// acceptance defaults: an 8x4 fleet in 4 zones, bounded-load hashing,
// constant load at 75% of initial rated capacity, the rollout starting
// half a base unit in, and a bad v2 that is 4x slower than advertised.
type RolloutConfig struct {
	// Hosts and DevicesPerHost size the fleet. 0 means 8 x 4.
	Hosts, DevicesPerHost int
	// Zones is the failure-domain count. 0 means 4.
	Zones int
	// Router names the routing policy. Empty means bounded-hash.
	Router string
	// BaseSeconds is the campaign's time unit: the rollout starts at
	// 0.5x, canary/wave windows and drain deadlines are 1/8x, and the
	// run ends at 4x. 0 means 0.4.
	BaseSeconds float64
	// Seed pins arrivals and request keys. 0 means 42.
	Seed int64
	// BadFactor is the bad v2's service-time inflation. 0 means 4.
	BadFactor float64
	// Plan is an optional -rollout-plan spec overriding the bad run's
	// plan (the good run always reuses it with factor=1).
	Plan string
}

// Horizon is the campaign end: enough room for the canary stage plus a
// wave per host pair and a stretch of post-change steady state.
func (c RolloutConfig) Horizon() float64 { return 4 * c.BaseSeconds }

// badPlan is the default bad-version rollout: start at half a base unit,
// a 10% canary (one replica per app, and an exposure below the p99 tail
// — the blast radius of a bad version must not be visible in the SLO),
// two observation windows, two hosts per wave, drain deadline of one
// window.
func (c RolloutConfig) badPlan() (cluster.RolloutPlan, error) {
	if c.Plan != "" {
		return cluster.ParseRolloutPlan(c.Plan)
	}
	return cluster.RolloutPlan{
		Start:          0.5 * c.BaseSeconds,
		Factor:         c.BadFactor,
		CanaryFrac:     0.1,
		Windows:        2,
		WindowSeconds:  c.BaseSeconds / 8,
		MaxUnavailable: 2,
		DrainSeconds:   c.BaseSeconds / 8,
	}, nil
}

// RolloutResult is the campaign outcome: the same seed run with no
// change, a bad v2, and a good v2.
type RolloutResult struct {
	Cfg RolloutConfig
	// Apps are the served apps' profiles, Table 1 order; PeakRate is
	// 75% of the two-replica initial rated capacity.
	Apps []ClusterAppInfo
	// Skipped lists apps with no deadline-safe operating point at the SLA.
	Skipped []string
	// BadPlan and GoodPlan are the applied rollout plans.
	BadPlan, GoodPlan cluster.RolloutPlan
	// Healthy is the no-change baseline's final snapshot.
	Healthy *cluster.Snapshot
	// Bad is the bad-v2 run's final snapshot (rolled back) and BadEvents
	// its full ordered log.
	Bad       *cluster.Snapshot
	BadEvents []cluster.Event
	// Good is the good-v2 run's final snapshot (fully promoted) and
	// GoodEvents its full ordered log.
	Good       *cluster.Snapshot
	GoodEvents []cluster.Event
	// GoodReport is the good run's saturation analysis; its per-app SLO
	// burn proves the change spent no error budget.
	GoodReport *cluster.SaturationReport
}

// RunRollout runs the three-way campaign.
func RunRollout(cfg RolloutConfig) (*RolloutResult, error) {
	f, err := newFleet(&cfg.Hosts, &cfg.DevicesPerHost, &cfg.Zones, &cfg.Router, &cfg.BaseSeconds, &cfg.Seed)
	if err != nil {
		return nil, err
	}
	cfg.BadFactor = cmp.Or(cfg.BadFactor, 4)
	bad, err := cfg.badPlan()
	if err != nil {
		return nil, err
	}
	good := bad
	good.Factor = 1
	res := &RolloutResult{Cfg: cfg, BadPlan: bad, GoodPlan: good}

	// Two replicas per app: the 10% canary rounds to one canary each,
	// and zone anti-affinity keeps the pair in distinct failure domains.
	const initialReplicas = 2
	// A rolling change cannot be SLO-neutral for an app whose safe
	// service time consumes most of the deadline: drain-induced queue
	// wait expires requests in both cohorts and the canary verdict
	// drowns in shed noise (CNN1's safe batch runs at ~100% of the
	// 7 ms SLA). Skip apps without 2x deadline headroom.
	headroom := func(plan serve.Plan) bool { return plan.SafeServiceSeconds <= 0.5*fleetSLASeconds }
	res.Apps, res.Skipped, err = f.mix(initialReplicas, headroom, func(one float64) (workload.Curve, float64, error) {
		rate := rolloutLoadFrac * (initialReplicas * one)
		return workload.Constant(rate), rate, nil
	})
	if err != nil {
		return nil, err
	}

	build := func(plan *cluster.RolloutPlan) (*cluster.Cluster, error) {
		c, err := f.build(cluster.RetryConfig{Enabled: true}, nil)
		if err != nil || plan == nil {
			return c, err
		}
		return c, c.ApplyRollout(*plan)
	}

	// The three arms share only the read-only app configs, so each runs
	// its own cluster on a goroutine of its own.
	err = concurrently(
		// Healthy baseline: same seed, no change in flight.
		func() error {
			healthy, err := build(nil)
			if err != nil {
				return err
			}
			healthy.Run(cfg.Horizon())
			res.Healthy = healthy.Snapshot()
			return nil
		},
		// The bad v2: caught at the canary stage, auto-rolled-back.
		func() error {
			badRun, err := build(&bad)
			if err != nil {
				return err
			}
			badRun.Run(cfg.Horizon())
			res.Bad = badRun.Snapshot()
			res.BadEvents = badRun.Events()
			return nil
		},
		// The good v2: promoted wave by wave to the whole fleet.
		func() error {
			goodRun, err := build(&good)
			if err != nil {
				return err
			}
			goodRun.Run(cfg.Horizon())
			res.Good = goodRun.Snapshot()
			res.GoodEvents = goodRun.Events()
			res.GoodReport, err = goodRun.SaturationReport()
			return err
		},
	)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// eventCount counts log events of the given kind, optionally requiring a
// detail prefix.
func eventCount(events []cluster.Event, kind, detailPrefix string) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind && strings.HasPrefix(e.Detail, detailPrefix) {
			n++
		}
	}
	return n
}

// maxVersion is the highest replica version in a snapshot, treating the
// pre-rollout zero value as v1.
func maxVersion(s *cluster.Snapshot) int {
	v := 1
	for _, r := range s.Replicas {
		if r.Version > v {
			v = r.Version
		}
	}
	return v
}

// Acceptance evaluates the campaign's change-safety criteria, returning
// one violation string per failed criterion (empty slice: all pass).
func (r *RolloutResult) Acceptance() []string {
	var bad []string

	// The bad v2 must be caught at the canary stage and fully undone.
	ro := r.Bad.Rollout
	switch {
	case ro == nil:
		bad = append(bad, "bad run carries no rollout state")
	case ro.Stage != "rolled-back":
		bad = append(bad, fmt.Sprintf("bad run ended in stage %q, want rolled-back", ro.Stage))
	case ro.Rollbacks != 1:
		bad = append(bad, fmt.Sprintf("bad run rolled back %d times, want exactly 1", ro.Rollbacks))
	}
	if n := eventCount(r.BadEvents, "canary-verdict", "FAIL"); n != 1 {
		bad = append(bad, fmt.Sprintf("bad run logged %d failing canary verdicts, want 1", n))
	}
	if n := eventCount(r.BadEvents, "wave", ""); n != 0 {
		bad = append(bad, fmt.Sprintf("bad v2 reached %d waves past the canary", n))
	}
	if v := maxVersion(r.Bad); v != 1 {
		bad = append(bad, fmt.Sprintf("bad run left v%d replicas in the fleet after rollback", v))
	}
	if n := len(r.Bad.CordonedHosts); n != 0 {
		bad = append(bad, fmt.Sprintf("%d hosts still cordoned after rollback", n))
	}
	for i, a := range r.Bad.Apps {
		h := r.Healthy.Apps[i]
		if a.ErrorRate >= 0.01 {
			bad = append(bad, fmt.Sprintf("%s error rate %.3f%% >= 1%% through the bad rollout", a.Name, a.ErrorRate*100))
		}
		if h.P99Ms > 0 && a.P99Ms > 2*h.P99Ms {
			bad = append(bad, fmt.Sprintf("%s p99 %.3f ms > 2x healthy %.3f ms", a.Name, a.P99Ms, h.P99Ms))
		}
	}

	// The good v2 must reach the whole fleet without spending budget.
	ro = r.Good.Rollout
	switch {
	case ro == nil:
		bad = append(bad, "good run carries no rollout state")
	case ro.Stage != "done":
		bad = append(bad, fmt.Sprintf("good run ended in stage %q, want done", ro.Stage))
	case ro.Rollbacks != 0:
		bad = append(bad, fmt.Sprintf("good run rolled back %d times", ro.Rollbacks))
	}
	for _, rep := range r.Good.Replicas {
		if rep.Version < 2 {
			bad = append(bad, fmt.Sprintf("%s r%d still on v1 after the good rollout", rep.App, rep.ID))
		}
	}
	if n := len(r.Good.CordonedHosts); n != 0 {
		bad = append(bad, fmt.Sprintf("%d hosts still cordoned after the good rollout", n))
	}
	for _, a := range r.GoodReport.Apps {
		if a.SLO.ShortBurn != 0 {
			bad = append(bad, fmt.Sprintf("%s short-window SLO burn %.2fx after the good rollout, want 0", a.Name, a.SLO.ShortBurn))
		}
	}
	for _, a := range r.Good.Apps {
		if a.ErrorRate >= 0.01 {
			bad = append(bad, fmt.Sprintf("%s error rate %.3f%% >= 1%% through the good rollout", a.Name, a.ErrorRate*100))
		}
	}
	return bad
}

// eventDigest renders an ordered kind-count summary of an event log.
func eventDigest(events []cluster.Event) string {
	counts := map[string]int{}
	for _, e := range events {
		counts[e.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", counts[k], k)
	}
	return fmt.Sprintf("%s (%d total)", strings.Join(parts, ", "), len(events))
}

// RenderRollout formats the campaign report.
func RenderRollout(r *RolloutResult) string {
	var b strings.Builder
	cfg := r.Cfg
	fmt.Fprintf(&b, "Safe change management campaign: %d hosts x %d devices in %d zones, router=%s, seed=%d\n",
		cfg.Hosts, cfg.DevicesPerHost, cfg.Zones, cfg.Router, cfg.Seed)
	fmt.Fprintf(&b, "steady load %.0f%% of initial rated capacity; horizon %.2fs\n",
		rolloutLoadFrac*100, cfg.Horizon())
	fmt.Fprintf(&b, "bad plan:  %s\n", r.BadPlan)
	fmt.Fprintf(&b, "good plan: %s\n", r.GoodPlan)
	b.WriteString("\n")

	renderApps(&b, r.Apps, r.Skipped, "load", "no SLO-safe rolling change")

	// The three-way comparison: no change / bad v2 / good v2.
	b.WriteString("\nhealthy baseline vs bad-v2 rollout vs good-v2 rollout (same seed):\n")
	fmt.Fprintf(&b, "%-6s | %7s %7s | %7s %7s %8s | %7s %7s %8s\n",
		"app", "h-p99", "h-err%", "b-p99", "b-err%", "b-shed%", "g-p99", "g-err%", "g-shed%")
	for i, h := range r.Healthy.Apps {
		x, g := r.Bad.Apps[i], r.Good.Apps[i]
		fmt.Fprintf(&b, "%-6s | %7.3f %6.3f%% | %7.3f %6.3f%% %7.2f%% | %7.3f %6.3f%% %7.2f%%\n",
			h.Name, h.P99Ms, h.ErrorRate*100,
			x.P99Ms, x.ErrorRate*100, x.ShedFrac*100,
			g.P99Ms, g.ErrorRate*100, g.ShedFrac*100)
	}

	b.WriteString("\noutcomes:\n")
	if ro := r.Bad.Rollout; ro != nil {
		fmt.Fprintf(&b, "  bad v2 (x%g): stage=%s rollbacks=%d\n", r.BadPlan.Factor, ro.Stage, ro.Rollbacks)
		if ro.Reason != "" {
			fmt.Fprintf(&b, "    reason: %s\n", ro.Reason)
		}
	}
	if ro := r.Good.Rollout; ro != nil {
		fmt.Fprintf(&b, "  good v2: stage=%s waves=%d rollbacks=%d fleet on v%d\n",
			ro.Stage, ro.Wave, ro.Rollbacks, maxVersion(r.Good))
	}
	b.WriteString("  good-run short-window SLO burn: ")
	for i, a := range r.GoodReport.Apps {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %.2fx", a.Name, a.SLO.ShortBurn)
	}
	b.WriteString("\n")

	fmt.Fprintf(&b, "\nevent log (bad run):  %s\n", eventDigest(r.BadEvents))
	fmt.Fprintf(&b, "event log (good run): %s\n", eventDigest(r.GoodEvents))

	renderAcceptance(&b, r.Acceptance(), "bad v2 caught at canary and fully rolled back; good v2 at 100% with zero SLO burn")
	return b.String()
}
