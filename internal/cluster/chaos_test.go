// Chaos tests pin the failure model and the anti-retry-storm defenses:
// revive undoes a kill (replicas re-admit, devices re-enter placement),
// partitions black-hole resident requests until a timeout then re-route,
// zones fail and recover as correlated units that zone-aware placement
// survives, the autoscaler freezes scale-down while a zone is dark, and
// the per-app retry budget bounds the storm the NoBudget control
// demonstrates. A golden chaos scenario pins the whole layer's rendering,
// with the usual same-seed determinism twin.
package cluster

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"tpusim/internal/obs"
	"tpusim/internal/runtime"
	"tpusim/internal/workload"
)

// chaos schedules the chaos-plan spec fmt.Sprintf(format, args...) through
// ApplyChaos, the one entry point the CLI's -chaos-plan also drives.
func chaos(t *testing.T, c *Cluster, format string, args ...any) {
	t.Helper()
	p, err := ParseChaosPlan(fmt.Sprintf(format, args...))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyChaos(p); err != nil {
		t.Fatal(err)
	}
}

// appDecisions returns one app's autoscaler decisions, read from the event
// log like every other consumer of them.
func appDecisions(c *Cluster, a *app) []Decision {
	var out []Decision
	for _, e := range c.events {
		if d := e.decision; d != nil && d.app == a.idx {
			out = append(out, *d)
		}
	}
	return out
}

// countEvents tallies log entries of one kind, optionally for one host
// (host -2 matches any).
func countEvents(c *Cluster, kind string, host int) int {
	n := 0
	for _, e := range c.events {
		if e.Kind == kind && (host == -2 || e.Host == host) {
			n++
		}
	}
	return n
}

// replicaOnHost finds an app's replica resident on the host.
func replicaOnHost(a *app, hostID int) *replica {
	var found *replica
	for _, rep := range a.replicas {
		if rep != nil && rep.dev.host.id == hostID {
			found = rep
		}
	}
	return found
}

// checkAccounting asserts the conservation law every chaos mode must
// preserve: offered requests resolve exactly once. A black-holed request
// is in none of the terms until its timeout re-routes it, so call it once
// every partition's timeouts have fired.
func checkAccounting(t *testing.T, a *app) {
	t.Helper()
	total := a.Completed + a.ShedQueue + a.Expired + a.Errors + uint64(inSystem(a))
	if a.Offered != total {
		t.Errorf("%s accounting leak: offered %d != completed %d + shedQ %d + expired %d + errors %d + inSystem %d",
			a.cfg.Name, a.Offered, a.Completed, a.ShedQueue, a.Expired, a.Errors, inSystem(a))
	}
}

// TestReviveReadmitsReplicas: kill is no longer one-way. A killed host's
// replicas quarantine and stop completing; after the revive they re-admit
// to routing and completions resume on the same replicas.
func TestReviveReadmitsReplicas(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 2000, 2)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "kill=0@2,revive=0@3")
	a := c.apps[0]
	rep := replicaOnHost(a, 0)
	if rep == nil {
		t.Fatal("no replica placed on host0")
	}

	c.Run(2.5) // mid-outage
	if rep.state != runtime.Quarantined {
		t.Fatalf("killed host's replica in state %v, want quarantined", rep.state)
	}
	deadCompleted := rep.completed

	c.Run(6) // past the revive
	if rep.state != runtime.Healthy {
		t.Errorf("revived host's replica in state %v, want healthy", rep.state)
	}
	if rep.completed <= deadCompleted {
		t.Errorf("revived replica completed nothing after re-admission (stuck at %d)", deadCompleted)
	}
	if got := countEvents(c, "revive", 0); got != 1 {
		t.Errorf("revive events for host0: %d, want 1", got)
	}
	if got := countEvents(c, "readmit", 0); got == 0 {
		t.Error("no readmit event for host0's replica")
	}
	s := c.Snapshot()
	if s.HostsAlive != 2 || len(s.DeadHosts) != 0 {
		t.Errorf("fleet not whole after revive: alive %d, dead %v", s.HostsAlive, s.DeadHosts)
	}
	if s.Apps[0].ErrorRate >= 0.01 {
		t.Errorf("error rate %.4f across a clean kill/revive, want < 1%%", s.Apps[0].ErrorRate)
	}
	ins := c.Incidents()
	if len(ins) != 1 || ins[0].Open || ins[0].Start != 2 || ins[0].End != 3 {
		t.Errorf("incidents = %v, want one closed [2, 3] interval", ins)
	}
	checkAccounting(t, a)
}

// TestRevivedHostReentersPlacement: while a host is dead its devices are
// unplaceable; after the revive spread-first ranking immediately prefers
// the empty revived host.
func TestRevivedHostReentersPlacement(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 1000, 1)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "kill=1@0.5,revive=1@1")
	a := c.apps[0]
	c.Run(0.6)
	if d := c.bestDevice(a); d == nil || d.host.id != 0 {
		t.Fatalf("placement target with host1 dead should be host0, got %v", d)
	}
	c.Run(1.1)
	if d := c.bestDevice(a); d == nil || d.host.id != 1 {
		t.Fatalf("placement target after revive should prefer the empty host1, got host%d", d.host.id)
	}
}

// TestPlacementSkipsPartitionedHost: a partitioned host is alive but
// unreachable — placing a replica there would route new traffic straight
// into the black hole, so the placer must treat it like a dead host.
func TestPlacementSkipsPartitionedHost(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 1000, 1)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "part=1@0.5-2")
	a := c.apps[0]
	c.Run(1) // host1 partitioned: only host0 is placeable
	if d := c.bestDevice(a); d == nil || d.host.id != 0 {
		t.Fatalf("placement target during partition should be host0, got %v", d)
	}
	c.Run(2.1) // healed: the empty host1 is preferred again
	if d := c.bestDevice(a); d == nil || d.host.id != 1 {
		t.Fatalf("placement target after heal should prefer the empty host1, got host%d", d.host.id)
	}
}

// TestPartitionBlackholeAndReroute: a partitioned host's resident requests
// hang (black-hole) for the partition timeout, then re-route as failovers;
// new traffic flows around the host immediately; the heal re-admits the
// replicas, and once every timeout has fired the conservation law holds:
// no black-holed request is left unresolved.
func TestPartitionBlackholeAndReroute(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 4000, 2)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "part=0@2-2.5")
	a := c.apps[0]
	rep := replicaOnHost(a, 0)

	c.Run(2.01) // just after the partition begins
	if rep.state != runtime.Quarantined {
		t.Fatalf("partitioned replica in state %v, want quarantined", rep.state)
	}
	if a.Blackholed == 0 {
		t.Error("no requests black-holed by a partition of a loaded host")
	}
	s := c.Snapshot()
	if len(s.PartitionedHosts) != 1 || s.PartitionedHosts[0] != 0 {
		t.Errorf("snapshot partitioned hosts %v, want [0]", s.PartitionedHosts)
	}
	if s.HostsAlive != 2 {
		t.Errorf("partition changed aliveness: %d hosts alive, want 2 (the host is fine)", s.HostsAlive)
	}
	frozenRouted, frozenCompleted := rep.routed, rep.completed

	c.Run(2.49) // just before the heal
	if rep.routed != frozenRouted || rep.completed != frozenCompleted {
		t.Errorf("traffic reached a partitioned replica: routed %d -> %d, completed %d -> %d",
			frozenRouted, rep.routed, frozenCompleted, rep.completed)
	}

	c.Run(5)
	if rep.state != runtime.Healthy {
		t.Errorf("replica not re-admitted after heal: state %v", rep.state)
	}
	if rep.completed <= frozenCompleted {
		t.Error("healed replica completed nothing after re-admission")
	}
	if a.Failovers == 0 {
		t.Error("black-holed requests never failed over after the timeout")
	}
	for _, kind := range []string{"partition", "blackhole", "partition-heal", "readmit"} {
		if countEvents(c, kind, 0) == 0 {
			t.Errorf("no %q event for host0", kind)
		}
	}
	if countEvents(c, "kill", -2) != 0 {
		t.Error("a partition logged a kill: the host never died")
	}
	checkAccounting(t, a)
}

// TestNoPolicyRoutesToPartitionedReplica: under every routing policy, a
// partitioned (quarantined) replica receives zero new traffic for the
// whole partition window.
func TestNoPolicyRoutesToPartitionedReplica(t *testing.T) {
	for _, pol := range []RouterPolicy{WeightedRoundRobin, LeastLoaded, BoundedHash} {
		t.Run(pol.String(), func(t *testing.T) {
			c, err := New(Config{
				Hosts: 2, DevicesPerHost: 1,
				Router:    pol,
				Apps:      []AppConfig{testApp("APP0", 3000, 2)},
				Autoscale: AutoscaleConfig{Disabled: true},
				Seed:      5,
			})
			if err != nil {
				t.Fatal(err)
			}
			chaos(t, c, "part=0@1-3")
			a := c.apps[0]
			rep := replicaOnHost(a, 0)
			c.Run(1.001)
			routed := rep.routed
			c.Run(2.99)
			if rep.routed != routed {
				t.Errorf("%s routed %d requests to a partitioned replica", pol, rep.routed-routed)
			}
			other := replicaOnHost(a, 1)
			if other.routed == 0 {
				t.Errorf("%s routed nothing to the surviving replica", pol)
			}
		})
	}
}

// TestRouterMissWhenAllPartitioned: with every replica unreachable the
// router has nowhere to send traffic — each arrival is a router miss, a
// client-visible error counted exactly once.
func TestRouterMissWhenAllPartitioned(t *testing.T) {
	c, err := New(Config{
		Hosts: 1, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 2000, 1)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "part=0@1-1.2")
	c.Run(3)
	a := c.apps[0]
	if a.Errors == 0 {
		t.Fatal("no client-visible errors while the only replica was unreachable")
	}
	checkAccounting(t, a)
}

// TestZonePlacementAntiAffinity: with failure domains configured, an app's
// replicas spread across zones first — so one dark zone cannot take the
// app to zero — while the zoneless ranking packs the same fleet by host.
func TestZonePlacementAntiAffinity(t *testing.T) {
	build := func(zones int) *Cluster {
		c, err := New(Config{
			Hosts: 4, DevicesPerHost: 1, Zones: zones,
			Router:    LeastLoaded,
			Apps:      []AppConfig{testApp("APP0", 1000, 2)},
			Autoscale: AutoscaleConfig{Disabled: true},
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	hostsOf := func(c *Cluster) []int {
		var hosts []int
		for _, r := range c.Snapshot().Replicas {
			hosts = append(hosts, r.Host)
		}
		return hosts
	}
	// Two zones over four hosts: zone 0 = {host0, host1}, zone 1 = {host2,
	// host3}. The second replica must land in the other zone.
	zoned := hostsOf(build(2))
	if len(zoned) != 2 || zoned[0] != 0 || zoned[1] != 2 {
		t.Errorf("zoned placement on hosts %v, want [0 2] (one replica per zone)", zoned)
	}
	// Without zones, spread is by host only: hosts 0 and 1.
	flat := hostsOf(build(0))
	if len(flat) != 2 || flat[0] != 0 || flat[1] != 1 {
		t.Errorf("zoneless placement on hosts %v, want [0 1]", flat)
	}
}

// TestZoneKillRevive: a correlated zone failure takes out half the fleet
// as one unit; the anti-affine surviving replica keeps the app serving
// through the dark window, and the zone revive restores the whole fleet.
func TestZoneKillRevive(t *testing.T) {
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 1, Zones: 2,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 3000, 2)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "zone-down=0@2,zone-up=0@3")
	a := c.apps[0]

	c.Run(2.5) // zone 0 dark
	s := c.Snapshot()
	if len(s.DarkZones) != 1 || s.DarkZones[0] != 0 {
		t.Fatalf("dark zones %v, want [0]", s.DarkZones)
	}
	if len(s.DeadHosts) != 2 {
		t.Fatalf("dead hosts %v, want both zone-0 hosts", s.DeadHosts)
	}
	if !c.zoneDark() {
		t.Error("zoneDark() false while zone 0 is dark")
	}
	mid := a.Completed

	c.Run(2.9) // still dark: the zone-1 replica carries the app
	if a.Completed <= mid {
		t.Error("app stopped serving during the zone outage despite an anti-affine surviving replica")
	}

	c.Run(6)
	s = c.Snapshot()
	if len(s.DarkZones) != 0 || len(s.DeadHosts) != 0 || s.HostsAlive != 4 {
		t.Errorf("fleet not whole after zone revive: %+v", s)
	}
	if c.zoneDark() {
		t.Error("zoneDark() true after the zone revived")
	}
	if countEvents(c, "zone-down", -2) != 1 || countEvents(c, "zone-up", -2) != 1 {
		t.Error("zone-down/zone-up events not logged exactly once each")
	}
	if got := countEvents(c, "revive", -2); got != 2 {
		t.Errorf("revive events: %d, want 2 (both zone-0 hosts)", got)
	}
	if s.Apps[0].ErrorRate >= 0.01 {
		t.Errorf("error rate %.4f through a zone outage, want < 1%%", s.Apps[0].ErrorRate)
	}
	ins := c.Incidents()
	if len(ins) != 1 || ins[0].Open {
		t.Fatalf("incidents = %v, want one closed interval", ins)
	}
	if len(ins[0].Kinds) != 1 || ins[0].Kinds[0] != "zone-down" {
		t.Errorf("incident kinds %v, want [zone-down]", ins[0].Kinds)
	}
	checkAccounting(t, a)
}

// TestAutoscalerIncidentGuard: while a zone is dark the arrival dip is
// traffic failing, not demand falling — the autoscaler must freeze
// scale-down (logging one scale-hold) and resume it only after the zone
// revives.
func TestAutoscalerIncidentGuard(t *testing.T) {
	app0 := testApp("APP0", 1500, 4)
	app0.MinReplicas = 1
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 1, Zones: 2,
		Router: LeastLoaded,
		Apps:   []AppConfig{app0},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "zone-down=0@0.3,zone-up=0@2")
	c.Run(4)
	holds, downsDuring, downsAfter := 0, 0, 0
	for _, d := range appDecisions(c, c.apps[0]) {
		switch {
		case d.Action == "scale-hold":
			holds++
		case d.Action == "scale-down" && d.Time > 0.3 && d.Time < 2:
			downsDuring++
		case d.Action == "scale-down" && d.Time >= 2:
			downsAfter++
		}
	}
	if downsDuring != 0 {
		t.Errorf("%d scale-downs while zone 0 was dark, want 0 (incident guard)", downsDuring)
	}
	if holds == 0 {
		t.Error("incident guard never logged a scale-hold decision")
	}
	if downsAfter == 0 {
		t.Error("no scale-down after the zone revived: over-provisioned fleet never drained")
	}
	if countEvents(c, "scale-hold", -2) == 0 {
		t.Error("scale-hold missing from the event log")
	}
}

// TestRetryBudgetBoundsStorm is the tentpole's storm demonstration: the
// same overloaded scenario with the token bucket on versus the NoBudget
// control. The budget caps granted retries at ratio x offered + burst;
// the control retries every shed to exhaustion — the metastable storm.
func TestRetryBudgetBoundsStorm(t *testing.T) {
	build := func(noBudget bool) *Cluster {
		c, err := New(Config{
			Hosts: 1, DevicesPerHost: 1,
			Router:    LeastLoaded,
			Apps:      []AppConfig{testApp("APP0", 20000, 1)}, // ~2x one replica's capacity
			Autoscale: AutoscaleConfig{Disabled: true},
			Retry:     RetryConfig{Enabled: true, NoBudget: noBudget},
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	budgeted, control := build(false), build(true)
	budgeted.Run(3)
	control.Run(3)
	ab, ac := budgeted.apps[0], control.apps[0]

	cap := budgetRatio*float64(ab.Offered) + budgetBurst
	if float64(ab.Retries) > cap+1 {
		t.Errorf("budgeted retries %d exceed the budget cap %.0f (ratio x offered + burst)", ab.Retries, cap)
	}
	if ab.BudgetDenied == 0 {
		t.Error("overload never exhausted the retry budget")
	}
	if countEvents(budgeted, "retry-budget-exhausted", -2) == 0 {
		t.Error("budget exhaustion not logged")
	}
	if ac.Retries <= 3*ab.Retries {
		t.Errorf("control run retried %d vs budgeted %d: the storm the budget prevents should dwarf it",
			ac.Retries, ab.Retries)
	}
	if ac.BudgetDenied != 0 || countEvents(control, "retry-budget-exhausted", -2) != 0 {
		t.Error("NoBudget control denied retries")
	}
	// Shed-at-dispatch keeps the served p99 inside the SLA even mid-storm.
	for _, s := range []*Snapshot{budgeted.Snapshot(), control.Snapshot()} {
		if s.Apps[0].P99Ms > 7.0+1e-9 {
			t.Errorf("p99 %.3f ms exceeds the SLA under overload", s.Apps[0].P99Ms)
		}
	}
	if got := budgeted.Snapshot().Render(); !strings.Contains(got, "retry defense (budget ratio 0.10, burst 64)") {
		t.Errorf("budgeted snapshot missing the retry defense section:\n%s", got)
	}
	if got := control.Snapshot().Render(); !strings.Contains(got, "NO BUDGET (storm control)") {
		t.Errorf("control snapshot missing the storm-control banner:\n%s", got)
	}
	checkAccounting(t, ab)
	checkAccounting(t, ac)
}

// TestDeadlineAwareFailover: when a black-holed request's timeout burns
// so much of its SLA that no replica could finish in time, the failover
// path fails it fast instead of re-routing load that cannot succeed. The
// timeout is half the 7 ms SLA; with a 3.1 ms batch-1 service time, any
// request that had waited 0.4 ms before the partition cannot be served
// in time once its timeout fires.
func TestDeadlineAwareFailover(t *testing.T) {
	app := testApp("APP0", 2000, 2)
	app.Service = testService(3e-3, 0.1e-3)
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{app},
		Autoscale: AutoscaleConfig{Disabled: true},
		Retry:     RetryConfig{Enabled: true},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "part=0@2-2.2")
	c.Run(5)
	a := c.apps[0]
	if a.Blackholed == 0 {
		t.Fatal("partition black-holed nothing")
	}
	if a.DeadlineDrops == 0 {
		t.Error("no deadline-aware drops despite a timeout longer than the SLA remainder")
	}
	if a.DeadlineDrops > a.Blackholed {
		t.Errorf("deadline drops %d exceed black-holed requests %d", a.DeadlineDrops, a.Blackholed)
	}
	if a.Errors < a.DeadlineDrops {
		t.Errorf("errors %d < deadline drops %d: a dropped request is a client-visible error", a.Errors, a.DeadlineDrops)
	}
	checkAccounting(t, a)
}

// TestFlapHost: scheduled kill/revive cycles land exactly, the host ends
// the sequence alive, and each down-phase opens (and closes) an incident.
func TestFlapHost(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 2000, 2)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "flap=0@1x3/0.5")
	c.Run(4)
	if got := countEvents(c, "kill", 0); got != 3 {
		t.Errorf("flap killed host0 %d times, want 3", got)
	}
	if got := countEvents(c, "revive", 0); got != 3 {
		t.Errorf("flap revived host0 %d times, want 3", got)
	}
	s := c.Snapshot()
	if s.HostsAlive != 2 {
		t.Errorf("flapping host did not end alive: %d/2 hosts", s.HostsAlive)
	}
	ins := c.Incidents()
	if len(ins) != 3 {
		t.Fatalf("%d incidents from a 3-cycle flap, want 3: %v", len(ins), ins)
	}
	for _, in := range ins {
		if in.Open || len(in.Kinds) != 1 || in.Kinds[0] != "flap" {
			t.Errorf("incident %v, want closed with kind [flap]", in)
		}
	}
	if s.Apps[0].ErrorRate >= 0.02 {
		t.Errorf("error rate %.4f through a flap with a healthy sibling, want < 2%%", s.Apps[0].ErrorRate)
	}
	checkAccounting(t, c.apps[0])
}

// TestDegradedHost: a slow host stretches every dispatched batch, the
// autoscaler's capacity accounting discounts it, shed-at-dispatch pays
// the overload in sheds (never p99), and a restore returns full speed.
func TestDegradedHost(t *testing.T) {
	c, err := New(Config{
		Hosts: 1, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 6000, 1)}, // ~65% of healthy capacity
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      8,
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "slow=0x2@2,slow=0x1@4")
	a := c.apps[0]
	rep := replicaOnHost(a, 0)
	healthyRate := perReplicaRate(rep)

	c.Run(2)
	shedHealthy := a.ShedQueue + a.Expired

	c.Run(2.1)
	if got := perReplicaRate(rep); math.Abs(got-healthyRate/2) > 1e-6 {
		t.Errorf("degraded capacity %.1f/s, want half the healthy %.1f/s", got, healthyRate)
	}

	c.Run(4)
	shedDegraded := a.ShedQueue + a.Expired - shedHealthy
	if shedDegraded == 0 {
		t.Error("a 2x-slow host serving 130%% of its degraded capacity shed nothing")
	}

	c.Run(6)
	shedRestored := a.ShedQueue + a.Expired - shedDegraded - shedHealthy
	if got := perReplicaRate(rep); math.Abs(got-healthyRate) > 1e-6 {
		t.Errorf("restored capacity %.1f/s, want the healthy %.1f/s", got, healthyRate)
	}
	if shedRestored*4 >= shedDegraded {
		t.Errorf("restore did not stop the bleeding: %d sheds after vs %d during degradation", shedRestored, shedDegraded)
	}
	if got := countEvents(c, "degrade", 0); got != 2 {
		t.Errorf("degrade events: %d, want 2 (slow-down and restore)", got)
	}
	if p99 := c.Snapshot().Apps[0].P99Ms; p99 > 7.0+1e-9 {
		t.Errorf("p99 %.3f ms exceeds the SLA: degradation must cost sheds, not latency", p99)
	}
	checkAccounting(t, a)
}

// TestParseChaosPlan: the spec syntax round-trips through String and
// rejects malformed entries.
func TestParseChaosPlan(t *testing.T) {
	spec := "kill=2@1.5,revive=2@3,part=1@1.5-2,slow=0x2.5@1,flap=3@1x4/0.5,zone-down=0@1.5,zone-up=0@3"
	p, err := ParseChaosPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Actions) != 7 {
		t.Fatalf("parsed %d actions, want 7", len(p.Actions))
	}
	if got := p.String(); got != spec {
		t.Errorf("round-trip drift:\n got %q\nwant %q", got, spec)
	}
	p2, err := ParseChaosPlan(p.String())
	if err != nil {
		t.Fatalf("re-parse of String() output: %v", err)
	}
	if p2.String() != p.String() {
		t.Error("String() not a fixed point of Parse(String())")
	}
	if empty, err := ParseChaosPlan("  "); err != nil || len(empty.Actions) != 0 {
		t.Errorf("blank spec: plan %v, err %v, want empty plan", empty, err)
	}
	for _, bad := range []string{
		"bogus=1@2",      // unknown key
		"kill=1",         // missing time
		"kill=x@1",       // bad target
		"part=1@2-1",     // empty window
		"flap=3@1x0/0.5", // zero cycles
		"flap=3@1x2",     // missing period
		"slow=1@2",       // missing factor
		"kill=-1@2",      // negative target
		"kill=1@-2",      // negative time
	} {
		if _, err := ParseChaosPlan(bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}

// TestApplyChaosValidatesFleet: targets outside the fleet or zone range
// fail at apply time, before anything is scheduled.
func TestApplyChaosValidatesFleet(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1, Zones: 2,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 1000, 1)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"kill=9@1", "part=5@1-2", "zone-down=7@1", "slow=4x2@1"} {
		p, err := ParseChaosPlan(spec)
		if err != nil {
			t.Fatalf("spec %q failed to parse: %v", spec, err)
		}
		if err := c.ApplyChaos(p); err == nil {
			t.Errorf("ApplyChaos(%q) accepted an out-of-range target", spec)
		}
	}
}

// TestPlansAndSchedulersReturnErrors: a number that is not a time (NaN), a
// non-finite factor / period / window, a malformed partition or flap, a
// target outside the fleet, or a time already behind the clock is an error
// from Validate / ApplyChaos / ApplyRollout — never a panic out of the
// calendar, at scheduling time or (the NaN slow-down) halfway through Run.
// A plan with one bad action schedules nothing.
func TestPlansAndSchedulersReturnErrors(t *testing.T) {
	for _, spec := range []string{
		"slow=6xNaN@0.3", "slow=0x2@NaN", "kill=0@NaN", "revive=0@NaN", "zone-down=0@NaN",
		"part=0@NaN-0.5", "part=0@0.1-NaN", "flap=0@0.1x2/NaN", "flap=0@NaNx2/0.1", "kill=0@+Inf",
	} {
		if p, err := ParseChaosPlan(spec); err == nil {
			t.Errorf("ParseChaosPlan(%q) accepted %+v", spec, p.Actions)
		}
	}
	for _, spec := range []string{
		"start=NaN", "start=1,factor=NaN", "start=1,window=NaN", "start=1,canary=NaN",
		"start=1,drain=NaN", "start=1,shedtol=NaN", "start=1,errtol=NaN", "start=Inf",
	} {
		if p, err := ParseRolloutPlan(spec); err == nil {
			t.Errorf("ParseRolloutPlan(%q) accepted %+v", spec, p)
		}
	}
	// Hand-built plans skip the parser; Validate is the gate Apply runs.
	if err := (ChaosPlan{Actions: []ChaosAction{{Kind: "slow", Factor: math.NaN(), At: 0.3}}}).Validate(); err == nil {
		t.Error("ChaosPlan.Validate accepted a NaN factor")
	}
	if err := (RolloutPlan{Start: math.NaN()}).Validate(); err == nil {
		t.Error("RolloutPlan.Validate accepted a NaN start")
	}

	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1, Zones: 2,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 1000, 1)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(1)
	nan, inf, pending := math.NaN(), math.Inf(1), c.loop.Pending()
	for name, bad := range map[string]ChaosAction{
		"kill past":         {Kind: "kill", At: 0.5},
		"kill NaN":          {Kind: "kill", At: nan},
		"kill outside":      {Kind: "kill", Target: 2, At: 1.5},
		"revive past":       {Kind: "revive", At: 0.5},
		"part past":         {Kind: "part", At: 0.5, Until: 2},
		"part NaN end":      {Kind: "part", At: 1.5, Until: nan},
		"part empty window": {Kind: "part", At: 1.5, Until: 1.5},
		"slow past":         {Kind: "slow", At: 0.5, Factor: 2},
		"slow NaN factor":   {Kind: "slow", At: 1.5, Factor: nan},
		"slow Inf factor":   {Kind: "slow", At: 1.5, Factor: inf},
		"flap past":         {Kind: "flap", At: 0.5, Cycles: 2, Period: 0.1},
		"flap NaN period":   {Kind: "flap", At: 1.5, Cycles: 2, Period: nan},
		"flap no cycles":    {Kind: "flap", At: 1.5, Period: 0.1},
		"zone-down past":    {Kind: "zone-down", At: 0.5},
		"zone-down outside": {Kind: "zone-down", Target: 2, At: 1.5},
		"zone-up NaN":       {Kind: "zone-up", At: nan},
	} {
		// Behind a good action, which must not be scheduled either.
		if err := c.ApplyChaos(ChaosPlan{Actions: []ChaosAction{{Kind: "kill", At: 1.5}, bad}}); err == nil {
			t.Errorf("%s: scheduled without error at now=%v", name, c.loop.Now())
		}
	}
	if err := c.ApplyRollout(RolloutPlan{Start: 0.5}); err == nil {
		t.Errorf("rollout in the past: scheduled without error at now=%v", c.loop.Now())
	}
	if got := c.loop.Pending(); got != pending {
		t.Errorf("rejected plans left %d events on the calendar", got-pending)
	}
	// The same calls are fine at or after now, and the run goes on.
	chaos(t, c, "kill=0@1")
	if err := c.ApplyRollout(RolloutPlan{Start: 1.2}); err != nil {
		t.Errorf("ApplyRollout in the future: %v", err)
	}
	c.Run(2)
}

// chaosCluster is the pinned chaos scenario: the golden fleet with two
// failure domains, retry budgets on, and a plan that exercises every
// chaos mode — a degraded host, a full zone outage mid-ramp, a partition
// during the outage, and a flapping host after recovery.
func chaosCluster(t *testing.T, tel *Telemetry) *Cluster {
	t.Helper()
	ramp, err := workload.NewPiecewiseLinear(
		workload.Point{T: 0, Rate: 2000},
		workload.Point{T: 3, Rate: 9000},
		workload.Point{T: 6, Rate: 1500},
	)
	if err != nil {
		t.Fatal(err)
	}
	diurnal, err := workload.NewMultiPeriod(2500, workload.Harmonic{Amp: 1200, Period: 4})
	if err != nil {
		t.Fatal(err)
	}
	mkApp := func(name string, base, perRow float64, curve workload.Curve) AppConfig {
		a := testApp(name, 0, 2)
		a.Service = testService(base, perRow)
		a.Curve = curve
		a.MinReplicas = 2 // quorum: one replica per zone survives any single-zone outage
		return a
	}
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 2, Zones: 2,
		Router: BoundedHash,
		Retry:  RetryConfig{Enabled: true},
		Apps: []AppConfig{
			mkApp("MLP", 0.4e-3, 0.09e-3, ramp),
			mkApp("LSTM", 0.8e-3, 0.09e-3, diurnal),
			mkApp("CNN", 1.2e-3, 0.07e-3, workload.Constant(1200)),
		},
		Seed:      7,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseChaosPlan("slow=1x2.5@1,zone-down=0@2,part=2@2.5-3.2,zone-up=0@4,flap=3@4.5x2/0.4")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyChaos(plan); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGoldenChaosSnapshot pins the chaos scenario's rendering mid-incident
// (zone dark, host partitioned, retry defense engaged) and after full
// recovery. Regenerate with -update.
func TestGoldenChaosSnapshot(t *testing.T) {
	c := chaosCluster(t, nil)
	c.Run(2.8) // zone 0 dark AND host2 partitioned: the worst moment
	mid := c.Snapshot()
	if len(mid.DarkZones) != 1 || len(mid.PartitionedHosts) != 1 {
		t.Fatalf("mid-incident snapshot missing chaos state: dark %v, partitioned %v",
			mid.DarkZones, mid.PartitionedHosts)
	}
	checkGolden(t, "cluster_chaos_mid.txt", mid.Render())
	c.Run(6)
	checkGolden(t, "cluster_chaos_final.txt", c.Snapshot().Render())
}

// TestGoldenChaosSaturation pins the chaos run's saturation report: the
// dark window's saturated windows must be attributed to the incidents,
// not misread as a capacity knee.
func TestGoldenChaosSaturation(t *testing.T) {
	c := chaosCluster(t, telemetry())
	c.Run(6)
	rep, err := c.SaturationReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Incidents) == 0 {
		t.Fatal("chaos run reported no incidents")
	}
	checkGolden(t, "cluster_chaos_saturation.txt", rep.Render())
}

// TestChaosConcurrentScrape is the -race churn test: the full chaos plan
// (zone kill, partition, flap, degrade, retries) mutates the fleet and
// registry while an ops endpoint scrapes it over HTTP from another
// goroutine. The exposition must always carry the chaos families.
func TestChaosConcurrentScrape(t *testing.T) {
	tel := telemetry()
	c := chaosCluster(t, tel)
	ops := obs.NewOps(tel.Tracer)
	ops.AddCollector(func(w io.Writer) { _, _ = io.WriteString(w, tel.Metrics.Prometheus()) })
	srv, err := ops.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Run(6)
	}()
	scrapes := 0
	for {
		select {
		case <-done:
			if scrapes == 0 {
				t.Error("simulation finished before any scrape completed")
			}
			return
		default:
		}
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range []string{"tpucluster_retries_total", "tpucluster_zone_state"} {
			if !strings.Contains(string(body), fam) {
				t.Fatalf("scrape missing chaos family %s:\n%s", fam, body)
			}
		}
		scrapes++
	}
}

// TestChaosDeterminism: the full chaos plan is replayable — two same-seed
// runs render byte-identical snapshots and event logs.
func TestChaosDeterminism(t *testing.T) {
	a, b := chaosCluster(t, nil), chaosCluster(t, nil)
	a.Run(6)
	b.Run(6)
	if ra, rb := a.Snapshot().Render(), b.Snapshot().Render(); ra != rb {
		t.Errorf("same-seed chaos runs rendered different snapshots:\n--- A ---\n%s\n--- B ---\n%s", ra, rb)
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event log lengths differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}
