// Rollout controller tests: plan parse round-trips, cordon-aware
// placement, graceful drain vs. the drain deadline, the canary verdict in
// both directions, the rollout x chaos hold/resume interplay, same-seed
// determinism and golden pins of the mid-canary and post-rollback
// snapshots.
package cluster

import (
	"strconv"
	"strings"
	"testing"

	"tpusim/internal/obs"
	"tpusim/internal/runtime"
	"tpusim/internal/workload"
)

// TestParseRolloutPlan: spec round-trips through String, defaults hold,
// and malformed specs fail fast.
func TestParseRolloutPlan(t *testing.T) {
	spec := "start=0.5,factor=2.5,canary=0.2,windows=4,window=0.04,wave=2,drain=0.06,shedtol=0.03,errtol=0.02"
	p, err := ParseRolloutPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start != 0.5 || p.Factor != 2.5 || p.CanaryFrac != 0.2 || p.Windows != 4 ||
		p.WindowSeconds != 0.04 || p.MaxUnavailable != 2 || p.DrainSeconds != 0.06 ||
		p.ShedTol != 0.03 || p.ErrTol != 0.02 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	back, err := ParseRolloutPlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("String round-trip drifted: %+v vs %+v", back, p)
	}

	// Defaults: only start given.
	d, err := ParseRolloutPlan("start=1")
	if err != nil {
		t.Fatal(err)
	}
	want := RolloutPlan{Start: 1, Factor: 1, CanaryFrac: 0.1, Windows: 3, WindowSeconds: 0.05,
		MaxUnavailable: 1, DrainSeconds: 0.05, ShedTol: 0.02, ErrTol: 0.01}
	if got := d.withDefaults(); got != want {
		t.Fatalf("defaults wrong: %+v", got)
	}
	if d.String() != "start=1" {
		t.Errorf("String renders defaulted fields: %q", d.String())
	}

	for _, bad := range []string{
		"",                  // empty
		"factor=2",          // no start
		"start=0",           // start must be positive
		"start=1,canary=1",  // canary fraction must be < 1
		"start=1,bogus=3",   // unknown key
		"start=1,windows=x", // unparsable value
		"start=1,factor",    // not key=value
		"start=1,wave=-1",   // negative
	} {
		if _, err := ParseRolloutPlan(bad); err == nil {
			t.Errorf("spec %q accepted, want error", bad)
		}
	}
}

// TestCordonSkipsPlacement is the satellite placement fix: host ranking
// skips cordoned hosts, so scale-up during a wave never lands a replica
// on one — even when the cordoned host would otherwise win the rank.
func TestCordonSkipsPlacement(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 2,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 100, 1)},
		Seed:      1,
		Autoscale: AutoscaleConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The single replica landed on host0, so host1 carries nothing and an
	// empty host normally wins the spread ranking. Cordon it: the next
	// placement must double up on host0 instead.
	c.cordon(c.hosts[1])
	rep, err := c.place(c.apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.dev.host.id == 1 {
		t.Fatal("placement landed on the cordoned host")
	}
	c.uncordon(c.hosts[1])
	rep2, err := c.place(c.apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.dev.host.id != 1 {
		t.Errorf("uncordoned host not used for placement, got host%d", rep2.dev.host.id)
	}
	// Cordoning the whole fleet blocks placement entirely.
	c.cordon(c.hosts[0])
	c.cordon(c.hosts[1])
	if _, err := c.place(c.apps[0]); err == nil {
		t.Error("placement succeeded with every host cordoned")
	}
}

// TestCordonPlacementDuringRollout sweeps a full autoscaled rollout and
// asserts the wave invariant from the event log: no place event ever
// targets a host inside its cordon window.
func TestCordonPlacementDuringRollout(t *testing.T) {
	curve, err := workload.NewPiecewiseLinear(
		workload.Point{T: 0, Rate: 2000},
		workload.Point{T: 0.5, Rate: 14000},
		workload.Point{T: 2, Rate: 14000},
	)
	if err != nil {
		t.Fatal(err)
	}
	app := testApp("APP0", 0, 2)
	app.Curve = curve
	app.MinReplicas = 1
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 2,
		Router:    BoundedHash,
		Apps:      []AppConfig{app},
		Seed:      11,
		Autoscale: AutoscaleConfig{Interval: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyRollout(RolloutPlan{Start: 0.3, MaxUnavailable: 1, WindowSeconds: 0.04}); err != nil {
		t.Fatal(err)
	}
	c.Run(2)
	cordoned := map[int]bool{}
	sawCordon := false
	for _, e := range c.Events() {
		switch e.Kind {
		case "cordon":
			cordoned[e.Host] = true
			sawCordon = true
		case "uncordon":
			cordoned[e.Host] = false
		case "place":
			if cordoned[e.Host] {
				t.Errorf("placement on cordoned host at %.4fs: %s", e.Time, e.String())
			}
		}
	}
	if !sawCordon {
		t.Fatal("rollout never cordoned a host — the invariant was not exercised")
	}
	for id, on := range cordoned {
		if on {
			t.Errorf("host%d still cordoned at the horizon", id)
		}
	}
}

// TestGracefulDrainFinishesQueue: a graceful drain stops admissions but
// serves everything already queued — no failovers, no deadline event —
// then frees the device residency.
func TestGracefulDrainFinishesQueue(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 3000, 2)},
		Seed:      2,
		Autoscale: AutoscaleConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := c.apps[0]
	var queued int
	c.loop.At(1, func() {
		rep := a.replicas[0]
		queued = rep.lane.Len() + len(rep.inFlight)
		c.drainReplica(rep, 10) // deadline far beyond what the queue needs
	})
	c.Run(3)
	if queued == 0 {
		t.Fatal("replica had nothing queued at drain time; scenario is vacuous")
	}
	if a.replicas[0] != nil {
		t.Fatal("drained replica still registered")
	}
	if a.Failovers != 0 || a.Errors != 0 {
		t.Errorf("graceful drain caused %d failovers, %d errors — residents should finish in place", a.Failovers, a.Errors)
	}
	for _, e := range c.Events() {
		if e.Kind == "drain-deadline" {
			t.Errorf("deadline fired despite a 10 s budget: %s", e.String())
		}
	}
	// offered = completed + in-system on the survivor: nothing leaked.
	total := a.Completed + a.ShedQueue + a.Expired + a.Errors + uint64(inSystem(a))
	if a.Offered != total {
		t.Errorf("accounting leak across the drain: offered %d, accounted %d", a.Offered, total)
	}
}

// TestDrainDeadlineFailsOver is the satellite hardening test: a saturated
// replica cannot finish its queue by the deadline, so its residents fail
// over through the router (burning failover attempts and retry budget)
// instead of stalling forever.
func TestDrainDeadlineFailsOver(t *testing.T) {
	app := testApp("APP0", 30000, 2) // ~3x the two replicas' capacity: queues stay full
	app.MaxReplicas = 2
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{app},
		Seed:      3,
		Autoscale: AutoscaleConfig{Disabled: true},
		Retry:     RetryConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	a := c.apps[0]
	var queued int
	c.loop.At(1, func() {
		rep := a.replicas[0]
		queued = rep.lane.Len() + len(rep.inFlight)
		c.drainReplica(rep, 0.002) // far too short for a saturated queue
	})
	c.Run(2)
	if queued < 2 {
		t.Fatalf("replica only held %d requests at drain time; saturation scenario is vacuous", queued)
	}
	if a.replicas[0] != nil {
		t.Fatal("deadline-expired replica still registered — the wave would stall")
	}
	deadline := false
	for _, e := range c.Events() {
		if e.Kind == "drain-deadline" {
			deadline = true
		}
	}
	if !deadline {
		t.Fatal("no drain-deadline event")
	}
	// Residents go through the failover gates: a saturated queue's requests
	// have little SLA left, so deadline-aware failover refuses most (that
	// refusal IS the accounting) and re-routes the rest within budget.
	if a.Failovers == 0 && a.DeadlineDrops == 0 && a.BudgetDenied == 0 {
		t.Error("orphans bypassed the failover path entirely — dropped, not re-routed")
	}
	if a.Errors == 0 && a.Failovers == 0 {
		t.Error("deadline expiry resolved no orphan either way")
	}
	total := a.Completed + a.ShedQueue + a.Expired + a.Errors + uint64(inSystem(a))
	if a.Offered != total {
		t.Errorf("accounting leak across the expiry: offered %d, accounted %d", a.Offered, total)
	}
}

// TestDrainDeadlineEndsBatchSpan: a drain deadline that cuts a serving
// replica's batch short ends the batch span opened at dispatch and marks
// it killed, exactly like a host death — no batch dispatched on the
// drained replica is left out of the trace.
func TestDrainDeadlineEndsBatchSpan(t *testing.T) {
	app := testApp("APP0", 30000, 2) // saturated, as in TestDrainDeadlineFailsOver
	app.MaxReplicas = 2
	tel := &Telemetry{Tracer: obs.NewTracer(1 << 16)} // every batch traced
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{app},
		Seed:      3,
		Autoscale: AutoscaleConfig{Disabled: true},
		Retry:     RetryConfig{Enabled: true},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	const drainAt, deadline = 1, 0.002
	rep := c.apps[0].replicas[0]
	servingAtDeadline := false
	c.loop.At(drainAt, func() { c.drainReplica(rep, deadline) })
	// Scheduled before the drain's own deadline closure, so it fires first
	// at the same instant.
	c.loop.At(drainAt+deadline, func() { servingAtDeadline = rep.serving() })
	c.Run(2)
	if !servingAtDeadline {
		t.Fatal("replica not serving at the drain deadline: the scenario cuts no batch short")
	}
	if c.apps[0].replicas[rep.id] != nil {
		t.Fatal("drained replica still registered")
	}
	if rep.span != nil {
		t.Error("the cut batch's span is still open on the removed replica")
	}
	var batches, killed int
	for _, sp := range tel.Tracer.Spans() {
		if id, _ := spanAttr(sp, "replica"); sp.Name != app.Name || id != strconv.Itoa(rep.id) {
			continue
		}
		batches++
		if outcome, _ := spanAttr(sp, "outcome"); outcome == "killed" {
			killed++
		}
	}
	if batches == 0 {
		t.Fatal("no batch spans from the drained replica")
	}
	if killed != 1 {
		t.Errorf("%d batch spans marked killed on the drained replica, want 1", killed)
	}
}

// rolloutCluster is the shared rollout scenario: two apps on a 4x2 fleet
// at moderate load, autoscaler frozen so replica motion is the rollout's.
func rolloutCluster(t *testing.T, plan RolloutPlan, zones int) *Cluster {
	t.Helper()
	return rolloutClusterWith(t, plan, zones, nil)
}

// rolloutClusterWith is the same scenario with observability attached.
func rolloutClusterWith(t *testing.T, plan RolloutPlan, zones int, tel *Telemetry) *Cluster {
	t.Helper()
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 2,
		Router: BoundedHash,
		Zones:  zones,
		Apps: []AppConfig{
			testApp("APP0", 4000, 2),
			testApp("APP1", 2000, 2),
		},
		Seed:      9,
		Autoscale: AutoscaleConfig{Disabled: true},
		Retry:     RetryConfig{Enabled: true},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyRollout(plan); err != nil {
		t.Fatal(err)
	}
	return c
}

// goodPlan upgrades to an honest v2 (factor 1) in two-host waves.
func goodPlan() RolloutPlan {
	return RolloutPlan{Start: 0.5, CanaryFrac: 0.25, Windows: 2, WindowSeconds: 0.05,
		MaxUnavailable: 2, DrainSeconds: 0.05}
}

// badPlan seeds a v2 that serves every batch 4x slower.
func badPlan() RolloutPlan {
	p := goodPlan()
	p.Factor = 4
	return p
}

// TestRolloutGoodVersion: an honest v2 passes the canary, sweeps every
// wave and converges to 100% v2 with the fleet uncordoned and error-free.
func TestRolloutGoodVersion(t *testing.T) {
	c := rolloutCluster(t, goodPlan(), 0)
	c.Run(3)
	if got := c.RolloutStage(); got != RolloutDone {
		t.Fatalf("stage %s, want done", got)
	}
	if c.Rollbacks() != 0 {
		t.Fatalf("good rollout rolled back %d time(s)", c.Rollbacks())
	}
	s := c.Snapshot()
	if len(s.CordonedHosts) != 0 {
		t.Errorf("hosts still cordoned after completion: %v", s.CordonedHosts)
	}
	for _, r := range s.Replicas {
		if r.Version != 2 {
			t.Errorf("%s r%d still on v%d after rollout-done", r.App, r.ID, r.Version)
		}
	}
	for _, a := range s.Apps {
		if a.Replicas < 2 {
			t.Errorf("%s converged to %d replicas, want >= 2 (baseline)", a.Name, a.Replicas)
		}
		if a.ErrorRate >= 0.01 {
			t.Errorf("%s error rate %.4f through the rollout, want < 1%%", a.Name, a.ErrorRate)
		}
	}
	kinds := map[string]int{}
	for _, e := range c.Events() {
		kinds[e.Kind]++
	}
	if kinds["canary-verdict"] != 1 || kinds["rollout-done"] != 1 || kinds["wave"] == 0 ||
		kinds["cordon"] == 0 || kinds["cordon"] != kinds["uncordon"] {
		t.Errorf("event log misses the rollout story: %v", kinds)
	}
	// Post-rollout scale-ups place v2.
	if rep, err := c.place(c.apps[0]); err != nil {
		t.Fatal(err)
	} else if rep.version != 2 {
		t.Errorf("post-rollout placement at v%d, want v2", rep.version)
	}
}

// TestRolloutBadVersionRollsBack: a 4x-slower v2 floods the canary cohort
// with dispatch sheds; the verdict fails, the fleet rolls back to v1 at
// full baseline capacity, nothing stays cordoned, and served p99 stays
// inside the SLA throughout (shed-at-dispatch contains the damage).
func TestRolloutBadVersionRollsBack(t *testing.T) {
	c := rolloutCluster(t, badPlan(), 0)
	c.Run(3)
	if got := c.RolloutStage(); got != RolloutRolledBack {
		t.Fatalf("stage %s, want rolled-back", got)
	}
	if c.Rollbacks() != 1 {
		t.Fatalf("%d rollbacks, want exactly 1", c.Rollbacks())
	}
	s := c.Snapshot()
	if len(s.CordonedHosts) != 0 {
		t.Errorf("hosts still cordoned after rollback: %v", s.CordonedHosts)
	}
	for _, r := range s.Replicas {
		if r.Version != 1 {
			t.Errorf("%s r%d still on v%d after rollback", r.App, r.ID, r.Version)
		}
		if r.Draining {
			t.Errorf("%s r%d still draining at the horizon", r.App, r.ID)
		}
	}
	for _, a := range s.Apps {
		if a.Replicas < 2 {
			t.Errorf("%s at %d replicas after rollback, want baseline 2", a.Name, a.Replicas)
		}
		if a.ErrorRate >= 0.01 {
			t.Errorf("%s error rate %.4f, want < 1%%", a.Name, a.ErrorRate)
		}
		if a.P99Ms > 7.0+1e-9 {
			t.Errorf("%s served p99 %.3f ms breached the SLA during the bad canary", a.Name, a.P99Ms)
		}
	}
	if s.Rollout == nil || s.Rollout.Stage != "rolled-back" || s.Rollout.Reason == "" {
		t.Errorf("snapshot rollout section incomplete: %+v", s.Rollout)
	}
	verdictFailed := false
	for _, e := range c.Events() {
		if e.Kind == "canary-verdict" && strings.HasPrefix(e.Detail, "FAIL") {
			verdictFailed = true
		}
	}
	if !verdictFailed {
		t.Error("no failing canary-verdict event — rollback happened for the wrong reason")
	}
}

// TestRolloutChaosPause is the satellite rollout x chaos test (run under
// -race by rollout-smoke): a zone going dark mid-rollout emits wave-hold,
// progression freezes until the heal, wave-resume restarts a fresh
// observation, and the rollout still converges to done.
func TestRolloutChaosPause(t *testing.T) {
	run := func() *Cluster {
		c := rolloutCluster(t, goodPlan(), 4)
		// Dark during the canary observation and the first wave boundary;
		// heals well before the horizon.
		chaos(t, c, "zone-down=3@0.55,zone-up=3@1")
		c.Run(4)
		return c
	}
	c := run()
	if got := c.RolloutStage(); got != RolloutDone {
		t.Fatalf("stage %s after heal, want done", got)
	}
	var holdAt, resumeAt float64 = -1, -1
	for _, e := range c.Events() {
		switch e.Kind {
		case "wave-hold":
			if holdAt < 0 {
				holdAt = e.Time
			}
		case "wave-resume":
			if resumeAt < 0 {
				resumeAt = e.Time
			}
		}
	}
	if holdAt < 0 || resumeAt < 0 {
		t.Fatal("incident did not produce wave-hold + wave-resume")
	}
	if holdAt < 0.55 || resumeAt < 1.0 {
		t.Errorf("hold at %.3f (incident at 0.55), resume at %.3f (heal at 1.0) — out of order", holdAt, resumeAt)
	}
	// Progression truly froze: no wave began inside the dark window.
	for _, e := range c.Events() {
		if e.Kind == "wave" && strings.Contains(e.Detail, "upgrading") && e.Time > 0.55 && e.Time < 1.0 {
			t.Errorf("wave started during the incident: %s", e.String())
		}
	}
	s := c.Snapshot()
	for _, r := range s.Replicas {
		if r.Version != 2 {
			t.Errorf("%s r%d still on v%d — rollout did not re-converge after the heal", r.App, r.ID, r.Version)
		}
	}

	// Same-seed determinism twin across the full rollout x chaos interplay.
	d := run()
	ea, eb := c.Events(), d.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event logs differ in length: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d diverged: %v vs %v", i, ea[i], eb[i])
		}
	}
	if ra, rb := c.Snapshot().Render(), d.Snapshot().Render(); ra != rb {
		t.Fatalf("same-seed rollout-chaos runs rendered differently:\n--- A ---\n%s--- B ---\n%s", ra, rb)
	}
}

// TestGoldenRolloutSnapshot pins the bad-version scenario at two
// instants: mid-canary (v2 canaries placed, split live) and the final
// post-rollback state. Regenerate with -update.
func TestGoldenRolloutSnapshot(t *testing.T) {
	c := rolloutCluster(t, badPlan(), 0)
	c.Run(0.55) // canary placed at 0.5, verdict at 0.6: mid-canary
	checkGolden(t, "rollout_mid_canary.txt", c.Snapshot().Render())
	c.Run(3) // verdict failed, rollback drained, fleet back on v1
	checkGolden(t, "rollout_post_rollback.txt", c.Snapshot().Render())
}

// TestGoldenRolloutDeterminism: the golden twin — two same-seed runs of
// the pinned scenario render byte-identically at both instants.
func TestGoldenRolloutDeterminism(t *testing.T) {
	a, b := rolloutCluster(t, badPlan(), 0), rolloutCluster(t, badPlan(), 0)
	a.Run(0.55)
	b.Run(0.55)
	if ra, rb := a.Snapshot().Render(), b.Snapshot().Render(); ra != rb {
		t.Fatalf("mid-canary snapshots differ:\n--- A ---\n%s--- B ---\n%s", ra, rb)
	}
	a.Run(3)
	b.Run(3)
	if ra, rb := a.Snapshot().Render(), b.Snapshot().Render(); ra != rb {
		t.Fatalf("post-rollback snapshots differ:\n--- A ---\n%s--- B ---\n%s", ra, rb)
	}
}

// TestRolloutCanaryQuarantinedOnKill: a canary replica's host dying
// mid-canary quarantines it and the traffic split falls back to v1 —
// requests never route into the dead canary.
func TestRolloutCanaryQuarantinedOnKill(t *testing.T) {
	c := rolloutCluster(t, goodPlan(), 0)
	c.Run(0.52) // canaries placed at 0.5
	var canaryHost int = -1
	for _, a := range c.apps {
		if a.ro != nil && len(a.ro.canaryIDs) > 0 {
			canaryHost = a.replicas[a.ro.canaryIDs[0]].dev.host.id
			break
		}
	}
	if canaryHost < 0 {
		t.Fatal("no canary placed by 0.52")
	}
	chaos(t, c, "kill=%d@0.53", canaryHost)
	c.Run(0.56)
	for _, a := range c.apps {
		if a.ro == nil {
			continue
		}
		for _, id := range a.ro.canaryIDs {
			rep := a.replicas[id]
			if rep != nil && rep.dev.host.id == canaryHost && rep.state != runtime.Quarantined {
				t.Errorf("%s canary r%d on the dead host is %s, want quarantined", a.cfg.Name, id, rep.state)
			}
		}
	}
	// The run continues without errors exploding: split diverts around the
	// quarantined canary.
	c.Run(1.2)
	for _, a := range c.apps {
		if a.Offered > 0 && float64(a.Errors)/float64(a.Offered) >= 0.02 {
			t.Errorf("%s error rate %.4f with a dead canary, want < 2%%", a.cfg.Name, float64(a.Errors)/float64(a.Offered))
		}
	}
}

// TestRolloutAutoscalerFrozen: while the rollout runs, the autoscaler
// holds scale-down (the rollout guard) — it must never drain a canary.
func TestRolloutAutoscalerFrozen(t *testing.T) {
	// Load low enough that, without the guard, two quiet windows would
	// trigger scale-down during the rollout.
	app := testApp("APP0", 300, 2)
	app.MinReplicas = 1
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 2,
		Router:    BoundedHash,
		Apps:      []AppConfig{app},
		Seed:      6,
		Autoscale: AutoscaleConfig{Interval: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyRollout(RolloutPlan{Start: 0.2, Windows: 6, WindowSeconds: 0.1}); err != nil {
		t.Fatal(err)
	}
	c.Run(0.7) // inside the canary observation
	hold := false
	for _, d := range appDecisions(c, c.apps[0]) {
		if d.Action == "scale-hold" && strings.Contains(d.Reason, "rollout guard") {
			hold = true
		}
		if d.Action == "scale-down" && d.Time > 0.2 {
			t.Errorf("scale-down at %.3fs during the rollout: %s", d.Time, d.String())
		}
	}
	if !hold {
		t.Error("rollout guard never announced a scale-hold")
	}
}
