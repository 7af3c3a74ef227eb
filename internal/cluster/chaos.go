// Cluster-grade chaos: the failure model beyond a clean, permanent host
// kill. The paper's fleets live with exactly the modes modeled here — the
// TPU retrospective's point that datacenter-scale failures, not device
// failures, dominate — and each mode stresses a different defense:
//
//   - revive: a killed host comes back; its resident replicas re-admit to
//     routing and its devices re-enter placement (kill is no longer
//     one-way).
//   - degraded-slow: a host serves every batch at a service-time multiple
//     (thermal throttle, failing NIC). The autoscaler's capacity
//     accounting discounts it and shed-at-dispatch keeps served p99
//     bounded.
//   - partition: the router loses the host but the host is fine. New
//     traffic flows around it immediately (health-check quarantine), but
//     requests already on the host black-hole until a timeout — the mode
//     where naive clients retry into a storm.
//   - flapping: scheduled kill/revive cycles, the pathological middle
//     ground between dead and healthy.
//   - zone kill/revive: Config.Zones groups hosts into failure domains
//     (power, network spine) that die and return as one unit — the
//     correlated failure that motivates zone-aware placement.
//
// A ChaosPlan is the seeded/replayable script format (the same style as
// internal/fault's Plan): parse a spec, apply it to a cluster, and the
// ordered event log replays byte-for-byte on the same (config, seed).
// ApplyChaos is the only way to schedule a fault, so the CLI's -chaos-plan
// and a test drive the same code.
package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"tpusim/internal/fault"
	"tpusim/internal/runtime"
)

// RetryConfig tunes the anti-retry-storm defenses. The zero value disables
// them entirely — the simulator behaves exactly as before this layer
// existed (admission sheds do not retry, failover re-routes are bounded
// only by maxRouteAttempts).
type RetryConfig struct {
	// Enabled turns on client-style retries of admission sheds and the two
	// defenses that keep them from becoming a storm: the per-app retry
	// token bucket and deadline-aware failover.
	Enabled bool
	// NoBudget removes the token bucket while keeping retries enabled —
	// the control run that demonstrates the storm the budget prevents.
	NoBudget bool
}

// The retry token bucket's shape.
const (
	// budgetRatio is the token earn rate: each offered request adds this
	// many retry tokens (classic ~10% retry budget).
	budgetRatio = 0.1
	// budgetBurst caps the bucket, bounding the retry burst after an idle
	// stretch.
	budgetBurst = 64
)

// Incident is one contiguous interval during which at least one host was
// dead or partitioned. The saturation analyzer attributes saturated
// windows inside an incident to the incident instead of calling them a
// capacity knee.
type Incident struct {
	// Start is when the first host went down.
	Start float64 `json:"start"`
	// End is when the last host recovered; meaningful only when !Open.
	End float64 `json:"end"`
	// Open reports an incident still in progress at observation time.
	Open bool `json:"open,omitempty"`
	// Kinds lists the distinct triggers, in first-occurrence order
	// (host-kill, zone-down, partition, flap).
	Kinds []string `json:"kinds"`
}

// String renders one incident line.
func (in Incident) String() string {
	end := "open"
	if !in.Open {
		end = fmt.Sprintf("%.3f s", in.End)
	}
	return fmt.Sprintf("%.3f s -> %s (%s)", in.Start, end, strings.Join(in.Kinds, "+"))
}

// Incidents returns the incident intervals so far, the open one last.
func (c *Cluster) Incidents() []Incident {
	out := make([]Incident, len(c.incidents))
	copy(out, c.incidents)
	return out
}

// incidentBegin notes one more host down (dead or partitioned), opening a
// new incident when the fleet was previously whole.
func (c *Cluster) incidentBegin(kind string) {
	c.downHosts++
	if c.downHosts == 1 {
		c.incidents = append(c.incidents, Incident{Start: c.loop.Now(), Open: true, Kinds: []string{kind}})
		return
	}
	c.incidentAddKind(kind)
}

// incidentAddKind records another trigger inside the open incident.
func (c *Cluster) incidentAddKind(kind string) {
	if len(c.incidents) == 0 {
		return
	}
	in := &c.incidents[len(c.incidents)-1]
	if !in.Open {
		return
	}
	for _, k := range in.Kinds {
		if k == kind {
			return
		}
	}
	in.Kinds = append(in.Kinds, kind)
}

// incidentEnd notes one host recovered, closing the incident when the
// fleet is whole again.
func (c *Cluster) incidentEnd() {
	if c.downHosts == 0 {
		return
	}
	c.downHosts--
	if c.downHosts == 0 && len(c.incidents) > 0 {
		in := &c.incidents[len(c.incidents)-1]
		in.Open = false
		in.End = c.loop.Now()
	}
}

// ---- failure-side primitives ----

// reviveHost executes a host revival: the host rejoins the fleet, its
// quarantined replicas re-admit to routing, and its devices re-enter
// placement. Reviving an alive host is a no-op.
func (c *Cluster) reviveHost(h *host, why string) {
	if h.alive {
		return
	}
	h.alive = true
	h.partitioned = false
	h.slow = 1 // a repaired machine comes back at full speed
	c.zoneAlive[h.zone]++
	c.log(h.id, "revive", fmt.Sprintf("host%d %s: %d devices rejoin placement and routing", h.id, why, len(h.devices)), subject{})
	c.readmit(h, why)
	c.incidentEnd()
}

// readmit returns a host's quarantined replicas to service. Draining
// replicas stay out: they were leaving anyway.
func (c *Cluster) readmit(h *host, why string) {
	for _, d := range h.devices {
		for _, rep := range d.replicas {
			if rep.draining || rep.state != runtime.Quarantined {
				continue
			}
			rep.state = runtime.Healthy
			rep.app.router.SetState(rep.id, runtime.Healthy)
			c.log(h.id, "readmit", fmt.Sprintf("%s replica r%d (host%d/dev%d) quarantined -> healthy: %s",
				rep.app.cfg.Name, rep.id, h.id, d.idx, why), subject{})
		}
	}
}

// partitionHost executes the start of a router<->host network partition:
// the router quarantines the host's replicas immediately (health checks
// fail), but requests already queued or in flight there black-hole until
// the partition timeout, then re-route — each timeout burns a failover
// attempt and, when retry budgets are enabled, a retry token.
func (c *Cluster) partitionHost(h *host) {
	if !h.alive || h.partitioned {
		return
	}
	h.partitioned = true
	c.log(h.id, "partition", fmt.Sprintf("host%d unreachable from router: traffic flows around it, resident requests black-hole", h.id), subject{})
	c.incidentBegin("partition")
	// Unlike a kill, resident requests do not fail over cleanly: they hang
	// until the partition timeout, then re-route.
	c.evictHost(h, "network partition", func(rep *replica, orphans []request, inFlight int) {
		a := rep.app
		// A black-holed request hangs for half the app's SLA before its
		// client gives up and re-routes: long enough to hurt, short enough
		// that the deadline can still be made on a surviving replica.
		timeout := 0.5 * a.plan.SLASeconds
		c.log(h.id, "blackhole", fmt.Sprintf("%s replica r%d: %d in-flight + %d queued requests hang for %.2f ms",
			a.cfg.Name, rep.id, inFlight, len(orphans)-inFlight, timeout*1e3), subject{})
		for _, r := range orphans {
			a.Blackholed++
			rr := r
			c.loop.After(timeout, c.controller(func() { c.failover(a, rr) }))
		}
	})
}

// healPartition executes the partition end: the host was healthy all
// along, so its replicas re-admit instantly.
func (c *Cluster) healPartition(h *host) {
	if !h.alive || !h.partitioned {
		return
	}
	h.partitioned = false
	c.log(h.id, "partition-heal", fmt.Sprintf("host%d reachable again", h.id), subject{})
	c.readmit(h, "partition healed")
	c.incidentEnd()
}

// degradeHost executes a service-time multiplier on a host (thermal
// throttle, degraded link); factor <= 1 restores full speed. Every batch
// dispatched on the host pays factor x its service time, the autoscaler's
// capacity accounting discounts the host, and shed-at-dispatch sheds the
// requests the stretched service time pushes past their SLA.
func (c *Cluster) degradeHost(h *host, factor float64) {
	if factor < 1 {
		factor = 1
	}
	h.slow = factor
	detail := fmt.Sprintf("host%d restored to full speed", h.id)
	if factor > 1 {
		detail = fmt.Sprintf("host%d degraded: service times x%.2f", h.id, factor)
	}
	c.log(h.id, "degrade", detail, subject{factor: factor})
}

// zones returns the configured failure-domain count, at least 1.
func (c Config) zones() int {
	if c.Zones <= 1 {
		return 1
	}
	return c.Zones
}

// zoneHosts lists the hosts of one zone, in id order.
func (c *Cluster) zoneHosts(zone int) []*host {
	var out []*host
	for _, h := range c.hosts {
		if h.zone == zone {
			out = append(out, h)
		}
	}
	return out
}

// zoneDark reports whether any configured failure domain has no alive
// hosts. Meaningful only with Zones > 1 — a single implicit zone going
// dark means the whole fleet is gone.
func (c *Cluster) zoneDark() bool {
	if c.cfg.zones() <= 1 {
		return false
	}
	for _, n := range c.zoneAlive {
		if n == 0 {
			return true
		}
	}
	return false
}

// killZone executes a correlated failure: every host of the zone dies as
// one unit (power domain, network spine).
func (c *Cluster) killZone(zone int) {
	hosts := c.zoneHosts(zone)
	c.log(-1, "zone-down", fmt.Sprintf("zone%d dark: %s fail together", zone, hostList(hosts)), subject{zone: zone})
	for _, h := range hosts {
		c.killHost(h, "zone-down")
	}
}

// reviveZone executes the zone's recovery as one unit.
func (c *Cluster) reviveZone(zone int) {
	hosts := c.zoneHosts(zone)
	c.log(-1, "zone-up", fmt.Sprintf("zone%d recovered: %s rejoin together", zone, hostList(hosts)), subject{zone: zone})
	for _, h := range hosts {
		c.reviveHost(h, "zone recovered")
	}
}

func hostList(hosts []*host) string {
	names := make([]string, len(hosts))
	for i, h := range hosts {
		names[i] = "host" + strconv.Itoa(h.id)
	}
	return strings.Join(names, "+")
}

// ---- retry-storm defenses ----

// earnRetryToken accrues retry budget on every offered request.
func (c *Cluster) earnRetryToken(a *app) {
	if !c.cfg.Retry.Enabled || c.cfg.Retry.NoBudget {
		return
	}
	a.budgetTokens = min(a.budgetTokens+budgetRatio, budgetBurst)
}

// takeRetryToken spends one retry token, reporting whether the retry is
// within budget. The first denial of a streak is logged — the moment the
// app switched from retrying to failing fast.
func (c *Cluster) takeRetryToken(a *app) bool {
	if c.cfg.Retry.NoBudget {
		return true
	}
	if a.budgetTokens >= 1 {
		a.budgetTokens--
		a.budgetDenyStreak = 0
		return true
	}
	a.BudgetDenied++
	a.budgetDenyStreak++
	if a.budgetDenyStreak == 1 {
		c.log(-1, "retry-budget-exhausted", fmt.Sprintf("%s retry budget empty after %d granted retries: failing fast",
			a.cfg.Name, a.Retries), subject{})
	}
	return false
}

// deadlineCovers reports whether re-routing the request can still meet its
// SLA: the remaining deadline must cover at least a batch-1 service time.
// Re-routing a request that cannot finish in time only adds load where
// load is the problem.
func (c *Cluster) deadlineCovers(a *app, r request) bool {
	return !a.plan.Expired(r.arrival, c.loop.Now(), a.svc[1])
}

// shedRetry gives an admission-shed request another spin through the
// router — the client-style retry that, unchecked, turns overload into a
// metastable retry storm. Granted only when attempts remain, the deadline
// still covers a service time, and the app's token bucket has budget.
// Reports whether the request was re-routed (false: the caller sheds it).
func (c *Cluster) shedRetry(a *app, r request) bool {
	if r.attempts+1 > maxRouteAttempts {
		return false
	}
	if !c.deadlineCovers(a, r) {
		a.DeadlineDrops++
		return false
	}
	if !c.takeRetryToken(a) {
		return false
	}
	r.attempts++
	a.Retries++
	c.route(a, r)
	return true
}

// ---- the seeded/replayable chaos plan ----

// ChaosAction is one scheduled failure-model action.
type ChaosAction struct {
	// Kind is kill, revive, part, slow, flap, zone-down or zone-up.
	Kind string
	// Target is the host id (zone id for zone-down/zone-up).
	Target int
	// At is the action time in virtual seconds.
	At float64
	// Until ends a partition window (part only).
	Until float64
	// Factor is the slow-down multiplier (slow only; <= 1 restores).
	Factor float64
	// Cycles and Period shape a flap sequence (flap only): the host dies at
	// At + k*Period and revives half a period later, for k in [0, Cycles),
	// ending the sequence alive.
	Cycles int
	Period float64
}

// String renders the action in the -chaos-plan spec syntax.
func (a ChaosAction) String() string {
	switch a.Kind {
	case "part":
		return fmt.Sprintf("part=%d@%s-%s", a.Target, ftoa(a.At), ftoa(a.Until))
	case "slow":
		return fmt.Sprintf("slow=%dx%s@%s", a.Target, ftoa(a.Factor), ftoa(a.At))
	case "flap":
		return fmt.Sprintf("flap=%d@%sx%d/%s", a.Target, ftoa(a.At), a.Cycles, ftoa(a.Period))
	default:
		return fmt.Sprintf("%s=%d@%s", a.Kind, a.Target, ftoa(a.At))
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// finite reports whether every value is a real number. A NaN passes every
// range check written as a comparison and then panics the calendar mid-run,
// so plans reject it (and the infinities) by name.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// ChaosPlan is a replayable failure script. Applied to a cluster before
// Run, it schedules every action on the discrete-event loop; the same plan
// on the same (config, seed) replays the identical event log.
type ChaosPlan struct {
	Actions []ChaosAction
}

// String renders the plan in the spec syntax ParseChaosPlan accepts.
func (p ChaosPlan) String() string {
	parts := make([]string, len(p.Actions))
	for i, a := range p.Actions {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks action shapes (target ranges are checked against the
// fleet at ApplyChaos time).
func (p ChaosPlan) Validate() error {
	for _, a := range p.Actions {
		if !finite(a.At, a.Until, a.Factor, a.Period) {
			return fmt.Errorf("cluster: chaos action %s: non-finite number", a)
		}
		if a.At < 0 {
			return fmt.Errorf("cluster: chaos action %s: negative time", a)
		}
		if a.Target < 0 {
			return fmt.Errorf("cluster: chaos action %s: negative target", a)
		}
		switch a.Kind {
		case "kill", "revive", "zone-down", "zone-up":
		case "part":
			if a.Until <= a.At {
				return fmt.Errorf("cluster: chaos action %s: empty partition window", a)
			}
		case "slow":
			if a.Factor < 0 {
				return fmt.Errorf("cluster: chaos action %s: negative factor", a)
			}
		case "flap":
			if a.Cycles < 1 || a.Period <= 0 {
				return fmt.Errorf("cluster: chaos action %s: want cycles >= 1 and period > 0", a)
			}
		default:
			return fmt.Errorf("cluster: chaos action kind %q (want kill, revive, part, slow, flap, zone-down or zone-up)", a.Kind)
		}
	}
	return nil
}

// ParseChaosPlan parses the -chaos-plan spec: comma-separated entries,
// keys repeatable.
//
//	kill=2@1.5          kill host 2 at t=1.5s
//	revive=2@3          revive host 2 at t=3s
//	part=1@1.5-2        partition host 1 during [1.5, 2)
//	slow=0x2.5@1        host 0 serves at 2.5x service time from t=1
//	slow=0x1@2          ... restored at t=2
//	flap=3@1x4/0.5      host 3 flaps 4 cycles of 0.5s starting at t=1
//	zone-down=0@1.5     zone 0's hosts all die at t=1.5
//	zone-up=0@3         ... and recover together at t=3
func ParseChaosPlan(spec string) (ChaosPlan, error) {
	var p ChaosPlan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	terms, bad := fault.SpecTerms(spec)
	for _, kv := range terms {
		k, v := kv[0], kv[1]
		act := ChaosAction{Kind: k}
		var err error
		switch k {
		case "kill", "revive", "zone-down", "zone-up":
			err = parseTargetAt(v, &act)
		case "part":
			err = parsePartition(v, &act)
		case "slow":
			err = parseSlow(v, &act)
		case "flap":
			err = parseFlap(v, &act)
		default:
			return ChaosPlan{}, fmt.Errorf("cluster: chaos spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return ChaosPlan{}, fmt.Errorf("cluster: chaos spec %q: %v", spec, err)
		}
		p.Actions = append(p.Actions, act)
	}
	if bad != "" {
		return ChaosPlan{}, fmt.Errorf("cluster: chaos spec %q: want key=value, got %q", spec, bad)
	}
	if err := p.Validate(); err != nil {
		return ChaosPlan{}, err
	}
	return p, nil
}

// parseTargetAt parses "target@t".
func parseTargetAt(v string, act *ChaosAction) error {
	tgt, at, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("%s=%q: want target@time", act.Kind, v)
	}
	var err error
	if act.Target, err = strconv.Atoi(tgt); err != nil {
		return fmt.Errorf("%s=%q: bad target %q", act.Kind, v, tgt)
	}
	if act.At, err = strconv.ParseFloat(at, 64); err != nil {
		return fmt.Errorf("%s=%q: bad time %q", act.Kind, v, at)
	}
	return nil
}

// parsePartition parses "host@from-until".
func parsePartition(v string, act *ChaosAction) error {
	tgt, window, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("part=%q: want host@from-until", v)
	}
	var err error
	if act.Target, err = strconv.Atoi(tgt); err != nil {
		return fmt.Errorf("part=%q: bad host %q", v, tgt)
	}
	from, until, ok := strings.Cut(window, "-")
	if !ok {
		return fmt.Errorf("part=%q: want host@from-until", v)
	}
	if act.At, err = strconv.ParseFloat(from, 64); err != nil {
		return fmt.Errorf("part=%q: bad start %q", v, from)
	}
	if act.Until, err = strconv.ParseFloat(until, 64); err != nil {
		return fmt.Errorf("part=%q: bad end %q", v, until)
	}
	return nil
}

// parseSlow parses "hostxfactor@t".
func parseSlow(v string, act *ChaosAction) error {
	spec, at, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("slow=%q: want hostxfactor@time", v)
	}
	tgt, factor, ok := strings.Cut(spec, "x")
	if !ok {
		return fmt.Errorf("slow=%q: want hostxfactor@time (e.g. slow=0x2.5@1)", v)
	}
	var err error
	if act.Target, err = strconv.Atoi(tgt); err != nil {
		return fmt.Errorf("slow=%q: bad host %q", v, tgt)
	}
	if act.Factor, err = strconv.ParseFloat(factor, 64); err != nil {
		return fmt.Errorf("slow=%q: bad factor %q", v, factor)
	}
	if act.At, err = strconv.ParseFloat(at, 64); err != nil {
		return fmt.Errorf("slow=%q: bad time %q", v, at)
	}
	return nil
}

// parseFlap parses "host@startxcycles/period".
func parseFlap(v string, act *ChaosAction) error {
	tgt, rest, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("flap=%q: want host@startxcycles/period", v)
	}
	var err error
	if act.Target, err = strconv.Atoi(tgt); err != nil {
		return fmt.Errorf("flap=%q: bad host %q", v, tgt)
	}
	start, shape, ok := strings.Cut(rest, "x")
	if !ok {
		return fmt.Errorf("flap=%q: want host@startxcycles/period (e.g. flap=3@1x4/0.5)", v)
	}
	if act.At, err = strconv.ParseFloat(start, 64); err != nil {
		return fmt.Errorf("flap=%q: bad start %q", v, start)
	}
	cycles, period, ok := strings.Cut(shape, "/")
	if !ok {
		return fmt.Errorf("flap=%q: want cycles/period after x", v)
	}
	if act.Cycles, err = strconv.Atoi(cycles); err != nil {
		return fmt.Errorf("flap=%q: bad cycles %q", v, cycles)
	}
	if act.Period, err = strconv.ParseFloat(period, 64); err != nil {
		return fmt.Errorf("flap=%q: bad period %q", v, period)
	}
	return nil
}

// ApplyChaos validates the plan against the fleet and schedules every
// action, or none when any is invalid. Call before Run reaches the
// earliest action time.
func (c *Cluster) ApplyChaos(p ChaosPlan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, a := range p.Actions {
		if err := c.checkAction(a); err != nil {
			return fmt.Errorf("cluster: chaos action %s: %w", a, err)
		}
	}
	for _, a := range p.Actions {
		c.scheduleAction(a)
	}
	return nil
}

// checkAction checks what Validate cannot: the action's target against the
// fleet and its time against the calendar.
func (c *Cluster) checkAction(a ChaosAction) error {
	noun, n := "host", len(c.hosts)
	if a.Kind == "zone-down" || a.Kind == "zone-up" {
		noun, n = "zone", c.cfg.zones()
	}
	if a.Target >= n {
		return fmt.Errorf("cluster: %s %d outside the fleet's %d %ss", noun, a.Target, n, noun)
	}
	return c.checkTime(a.At)
}

// scheduleAction puts a checked action on the calendar: a partition as its
// start and its heal, a flap as one kill/revive pair per cycle.
func (c *Cluster) scheduleAction(a ChaosAction) {
	at := func(t float64, fn func()) { c.loop.At(t, c.controller(fn)) }
	switch a.Kind {
	case "zone-down":
		at(a.At, func() { c.killZone(a.Target) })
		return
	case "zone-up":
		at(a.At, func() { c.reviveZone(a.Target) })
		return
	}
	h := c.hosts[a.Target]
	switch a.Kind {
	case "kill":
		at(a.At, func() { c.killHost(h, "host-kill") })
	case "revive":
		at(a.At, func() { c.reviveHost(h, "revived") })
	case "part":
		at(a.At, func() { c.partitionHost(h) })
		at(a.Until, func() { c.healPartition(h) })
	case "slow":
		at(a.At, func() { c.degradeHost(h, a.Factor) })
	case "flap":
		for k := range a.Cycles {
			down := a.At + float64(k)*a.Period
			at(down, func() { c.killHost(h, "flap") })
			at(down+a.Period/2, func() { c.reviveHost(h, "flap revive") })
		}
	}
}
