// Fleet snapshots: the deterministic, renderable state the golden tests
// pin. A snapshot is a pure function of (config, seed, virtual time) — no
// map iteration order, no wall-clock timestamps — so two same-seed runs
// render byte-identical text and any behavioral drift in routing,
// placement, failover or autoscaling shows up as a readable diff.
package cluster

import (
	"fmt"
	"strings"

	"tpusim/internal/runtime"
	"tpusim/internal/stats"
)

// AppCounters is one app's cumulative request outcomes. The simulator
// counts them on its app state; a snapshot and the metrics registry copy
// them whole.
type AppCounters struct {
	Offered                       uint64
	Completed, ShedQueue, Expired uint64
	// Errors counts client-visible failures: router misses, and failovers
	// refused for attempts, deadline or retry budget.
	Failovers, Errors uint64
	// Retry-defense counters (nonzero only with Config.Retry.Enabled):
	// granted vs budget-refused retries, retries refused because the SLA
	// cannot be met anyway, and requests stranded behind a partition.
	Retries, BudgetDenied     uint64
	DeadlineDrops, Blackholed uint64
}

// AppSnapshot is one app's cumulative serving outcome.
type AppSnapshot struct {
	Name     string
	Replicas int // routable replicas at snapshot time
	AppCounters
	P50Ms, P99Ms float64
	// ShedFrac is (queue sheds + dispatch expiries) over offered load;
	// ErrorRate is client-visible failures over offered load.
	ShedFrac, ErrorRate float64
}

// ReplicaSnapshot is one replica's placement and state.
type ReplicaSnapshot struct {
	App       string
	ID        int
	Host, Dev int
	State     runtime.HealthState
	Draining  bool
	// Version is the model version served; 1 outside rollouts (rendered
	// only when above 1, keeping rollout-free snapshots byte-identical).
	Version   int
	Routed    uint64
	Completed uint64
	QueueLen  int
}

// RolloutSnapshot is the rollout controller's state, present only when a
// rollout was applied.
type RolloutSnapshot struct {
	Stage      string
	Wave       int
	CanaryFrac float64
	Factor     float64
	Rollbacks  int
	Reason     string // last verdict failure, "" if none
}

// Snapshot is the full fleet state at one virtual instant.
type Snapshot struct {
	Hosts, DevicesPerHost int
	Router                RouterPolicy
	Seed                  int64
	VirtualTime           float64
	EventsProcessed       uint64
	HostsAlive            int
	DeadHosts             []int
	// Chaos-mode state: failure domains, partitioned hosts and the retry
	// defense. Zero/empty for a cluster without zones, partitions or
	// retries — Render omits the sections entirely, keeping legacy
	// snapshots byte-identical.
	Zones            int
	DarkZones        []int
	PartitionedHosts []int
	// CordonedHosts and Rollout are the change-management state; empty/nil
	// without a rollout or manual cordon, and then omitted from Render.
	CordonedHosts []int
	Rollout       *RolloutSnapshot
	RetryEnabled  bool
	BudgetRatio   float64
	BudgetBurst   float64
	NoBudget      bool
	Apps          []AppSnapshot
	Replicas      []ReplicaSnapshot
	Decisions     []Decision
	EventLogLen   int
}

// Snapshot captures the fleet state. It is cheap enough to call between
// Run segments.
func (c *Cluster) Snapshot() *Snapshot {
	s := &Snapshot{
		Hosts:           c.cfg.Hosts,
		DevicesPerHost:  c.cfg.DevicesPerHost,
		Router:          c.cfg.Router,
		Seed:            c.cfg.Seed,
		VirtualTime:     c.loop.Now(),
		EventsProcessed: c.loop.Processed(),
		EventLogLen:     len(c.events),
	}
	for _, h := range c.hosts {
		if h.alive {
			s.HostsAlive++
		} else {
			s.DeadHosts = append(s.DeadHosts, h.id)
		}
		if h.partitioned {
			s.PartitionedHosts = append(s.PartitionedHosts, h.id)
		}
		if h.cordoned {
			s.CordonedHosts = append(s.CordonedHosts, h.id)
		}
	}
	if ro := c.ro; ro != nil {
		s.Rollout = &RolloutSnapshot{
			Stage:      ro.stage.String(),
			Wave:       ro.wave,
			CanaryFrac: ro.plan.CanaryFrac,
			Factor:     ro.plan.Factor,
			Rollbacks:  ro.rollbacks,
			Reason:     ro.reason,
		}
	}
	if c.cfg.zones() > 1 {
		s.Zones = c.cfg.zones()
		for z, n := range c.zoneAlive {
			if n == 0 {
				s.DarkZones = append(s.DarkZones, z)
			}
		}
	}
	if c.cfg.Retry.Enabled {
		s.RetryEnabled = true
		s.BudgetRatio, s.BudgetBurst = budgetRatio, budgetBurst
		s.NoBudget = c.cfg.Retry.NoBudget
	}
	for _, a := range c.apps {
		as := AppSnapshot{
			Name:        a.cfg.Name,
			Replicas:    a.liveReplicas(),
			AppCounters: a.AppCounters,
		}
		// Percentiles read the log where it lies and copy only the values
		// near their ranks. They fail on an empty log only: every served
		// latency is finite and >= +0 (checkInvariants).
		if qs, err := stats.ChunkedPercentiles(a.latencies.chunks, 50, 99); err == nil {
			as.P50Ms, as.P99Ms = qs[0]*1e3, qs[1]*1e3
		}
		if a.Offered > 0 {
			as.ShedFrac = float64(a.ShedQueue+a.Expired) / float64(a.Offered)
			as.ErrorRate = float64(a.Errors) / float64(a.Offered)
		}
		s.Apps = append(s.Apps, as)
		for _, rep := range a.replicas {
			if rep == nil {
				continue
			}
			s.Replicas = append(s.Replicas, ReplicaSnapshot{
				App: a.cfg.Name, ID: rep.id,
				Host: rep.dev.host.id, Dev: rep.dev.idx,
				State: rep.state, Draining: rep.draining,
				Version: rep.version,
				Routed:  rep.routed, Completed: rep.completed,
				QueueLen: rep.lane.Len(),
			})
		}
	}
	// The log holds decisions in time order, and the autoscaler decides for
	// the apps of one tick in config order.
	for _, e := range c.events {
		if e.decision != nil {
			s.Decisions = append(s.Decisions, *e.decision)
		}
	}
	return s
}

// Render formats the snapshot as the golden-file text.
func (s *Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: %d hosts x %d devices, router=%s, seed=%d", s.Hosts, s.DevicesPerHost, s.Router, s.Seed)
	if s.Zones > 1 {
		fmt.Fprintf(&b, ", zones=%d", s.Zones)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "virtual time %.3f s, hosts alive %d/%d", s.VirtualTime, s.HostsAlive, s.Hosts)
	for _, l := range []struct {
		label, noun string
		ids         []int
	}{
		{"dead", "host", s.DeadHosts}, {"partitioned", "host", s.PartitionedHosts},
		{"cordoned", "host", s.CordonedHosts}, {"dark", "zone", s.DarkZones},
	} {
		if len(l.ids) > 0 {
			fmt.Fprintf(&b, " (%s:", l.label)
			for _, id := range l.ids {
				fmt.Fprintf(&b, " %s%d", l.noun, id)
			}
			b.WriteString(")")
		}
	}
	fmt.Fprintf(&b, ", log %d events\n\n", s.EventLogLen)

	fmt.Fprintf(&b, "%-6s %4s %8s %9s %6s %7s %8s %6s %7s %7s %8s %8s\n",
		"app", "repl", "offered", "completed", "shedQ", "expired", "failover", "errs", "p50ms", "p99ms", "shed%", "err%")
	for _, a := range s.Apps {
		fmt.Fprintf(&b, "%-6s %4d %8d %9d %6d %7d %8d %6d %7.3f %7.3f %7.2f%% %7.3f%%\n",
			a.Name, a.Replicas, a.Offered, a.Completed, a.ShedQueue, a.Expired,
			a.Failovers, a.Errors, a.P50Ms, a.P99Ms, a.ShedFrac*100, a.ErrorRate*100)
	}

	if s.RetryEnabled {
		bucket := fmt.Sprintf("budget ratio %.2f, burst %.0f", s.BudgetRatio, s.BudgetBurst)
		if s.NoBudget {
			bucket = "NO BUDGET (storm control)"
		}
		fmt.Fprintf(&b, "\nretry defense (%s):\n", bucket)
		for _, a := range s.Apps {
			fmt.Fprintf(&b, "  %-6s retries=%d budget-denied=%d deadline-drops=%d blackholed=%d\n",
				a.Name, a.Retries, a.BudgetDenied, a.DeadlineDrops, a.Blackholed)
		}
	}

	b.WriteString("\nreplicas:\n")
	for _, r := range s.Replicas {
		status := r.State.String()
		if r.Version > 1 {
			status += fmt.Sprintf(",v%d", r.Version)
		}
		if r.Draining {
			status += ",draining"
		}
		fmt.Fprintf(&b, "  %-6s r%-3d host%d/dev%d %-11s routed=%d completed=%d queue=%d\n",
			r.App, r.ID, r.Host, r.Dev, status, r.Routed, r.Completed, r.QueueLen)
	}

	if r := s.Rollout; r != nil {
		fmt.Fprintf(&b, "\nrollout: stage=%s wave=%d canary=%.0f%% factor=x%g rollbacks=%d\n",
			r.Stage, r.Wave, r.CanaryFrac*100, r.Factor, r.Rollbacks)
		if r.Reason != "" {
			fmt.Fprintf(&b, "  reason: %s\n", r.Reason)
		}
	}

	if len(s.Decisions) > 0 {
		b.WriteString("\nautoscaler decisions:\n")
		for _, d := range s.Decisions {
			fmt.Fprintf(&b, "  %s\n", d.String())
		}
	}
	return b.String()
}
