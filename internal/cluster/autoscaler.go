// Load-driven autoscaling: hold every app's p99 SLA through a load ramp by
// adding replicas ahead of saturation and draining them when demand falls.
// The serving plan already bounds the p99 of *served* requests by
// construction (shed-at-dispatch); what overload actually costs is shed
// traffic. So the scaler watches two signals per decision window — the
// arrival rate against live capacity, and the shed fraction — and sizes
// the replica set so neither breaches its threshold. Decisions are
// event-log entries, which the snapshot and the metrics registry read
// back; capacity accounting divides a device's rate among its resident
// replicas, so co-location is never double counted.
package cluster

import (
	"fmt"
	"math"
	"slices"

	"tpusim/internal/runtime"
)

// perReplicaRate is the replica's saturation throughput: the plan's safe
// batch over its service time, split among the live replicas sharing the
// device's execution engine and discounted by the host's degradation
// factor — a 2x-slow host contributes half the capacity.
func perReplicaRate(rep *replica) float64 {
	sharing := 0
	for _, r := range rep.dev.replicas {
		if !r.draining {
			sharing++
		}
	}
	plan := rep.app.plan
	return float64(plan.SafeBatch) / plan.SafeServiceSeconds / float64(max(sharing, 1)) / rep.dev.host.slow
}

// liveCapacity sums the routable replicas' saturation rates, in id order:
// the rates differ between shared and slowed replicas, and float addition
// is order-sensitive.
func (a *app) liveCapacity() float64 {
	total := 0.0
	for _, rep := range a.replicas {
		if rep == nil || rep.state == runtime.Quarantined || rep.draining {
			continue
		}
		total += perReplicaRate(rep)
	}
	return total
}

// autoscaleTick runs one decision pass over every app, then schedules the
// next tick. The chain starts in New and lives as long as the loop runs.
func (c *Cluster) autoscaleTick() {
	cfg := c.cfg.Autoscale
	interval := cfg.interval()
	if !c.zoneDark() {
		// Incident over: re-arm the guard's one-shot announcement.
		for _, a := range c.apps {
			a.holdLogged = false
		}
	}
	if !c.rolloutActive() {
		// Rollout over (or none): re-arm the rollout guard's announcement.
		for _, a := range c.apps {
			a.rolloutHold = false
		}
	}
	for _, a := range c.apps {
		c.autoscaleApp(a, interval)
		a.tickOffered, a.tickShed = a.Offered, a.ShedQueue+a.Expired
	}
	c.loop.After(interval, c.controller(c.autoscaleTick))
}

// autoscaleApp makes one scaling decision for one app from its window.
func (c *Cluster) autoscaleApp(a *app, interval float64) {
	arrivals := a.Offered - a.tickOffered
	rate := float64(arrivals) / interval
	capacity := a.liveCapacity()
	shedFrac := 0.0
	if arrivals > 0 {
		shedFrac = float64(a.ShedQueue+a.Expired-a.tickShed) / float64(arrivals)
	}
	live := a.liveReplicas()

	needUp := (capacity == 0 && rate > 0) ||
		(capacity > 0 && rate > upUtil*capacity) ||
		shedFrac > shedUpFrac
	if needUp && live < a.cfg.MaxReplicas {
		a.lowTicks = 0
		c.scaleUp(a, rate, capacity, shedFrac)
		return
	}

	// Incident guard: while a failure domain is dark, never shed capacity.
	// The dip in arrivals during an incident is traffic failing, not demand
	// falling — scaling down on it is how outages compound. Scale-up stays
	// allowed (handled above).
	if c.zoneDark() {
		if !a.holdLogged {
			a.holdLogged = true
			c.decide(a, actScaleHold, live, live, "incident guard: a zone is dark, scale-down frozen")
		}
		a.lowTicks = 0
		return
	}

	// Rollout guard: while a change is in progress, never shed capacity —
	// newest-first removal would eat the canaries and the surge replicas,
	// and the wave churn makes the utilization window unreadable anyway.
	if c.rolloutActive() {
		if !a.rolloutHold {
			a.rolloutHold = true
			c.decide(a, actScaleHold, live, live, "rollout guard: change in progress, scale-down frozen")
		}
		a.lowTicks = 0
		return
	}

	// Scale down only when the post-removal fleet would still be under the
	// low-water mark, and only after two consecutive quiet windows — one
	// noisy lull must not shed warm capacity.
	if live > a.cfg.MinReplicas && capacity > 0 {
		newest := c.newestRemovable(a)
		if newest != nil && rate < downUtil*(capacity-perReplicaRate(newest)) {
			a.lowTicks++
			if a.lowTicks >= 2 {
				a.lowTicks = 0
				c.scaleDown(a, newest, rate)
			}
			return
		}
	}
	a.lowTicks = 0
}

// scaleUp adds enough replicas to bring utilization back under the
// threshold, capped by the per-tick step and the app's replica ceiling.
func (c *Cluster) scaleUp(a *app, rate, capacity, shedFrac float64) {
	one := float64(a.plan.SafeBatch) / a.plan.SafeServiceSeconds // un-shared replica rate
	deficit := rate/upUtil - capacity
	from := a.liveReplicas()
	need := min(max(int(math.Ceil(deficit/one)), 1), maxStepUp, a.cfg.MaxReplicas-from)
	added := 0
	for i := 0; i < need; i++ {
		if _, err := c.place(a); err != nil {
			c.decide(a, actScaleBlocked, from+added, from+added,
				fmt.Sprintf("placement failed: %v", err))
			break
		}
		added++
	}
	if added > 0 {
		c.decide(a, actScaleUp, from, from+added,
			fmt.Sprintf("rate %.0f/s vs capacity %.0f/s, shed %.1f%%", rate, capacity, shedFrac*100))
	}
}

// scaleDown drains one replica: the router stops routing to it first, its
// queued requests re-route to siblings, and its device residency is freed
// once any in-flight batch completes.
func (c *Cluster) scaleDown(a *app, rep *replica, rate float64) {
	from := a.liveReplicas()
	rep.markDraining()
	for _, r := range rep.lane.Drain(nil) {
		// Drained requests keep their arrival time and re-route without
		// burning a failover attempt: the replica left gracefully.
		c.route(a, r)
	}
	c.decide(a, actScaleDown, from, from-1,
		fmt.Sprintf("rate %.0f/s under %.0f%% of post-drain capacity", rate, downUtil*100))
	if !rep.serving() {
		c.finalizeRemoval(rep)
	}
}

// newestRemovable picks the drain candidate: the most recently placed
// live replica (highest id), so the stable core of the replica set keeps
// its hash-ring arcs and long-lived key affinity.
func (c *Cluster) newestRemovable(a *app) *replica {
	for _, rep := range slices.Backward(a.replicas) {
		if rep != nil && rep.state != runtime.Quarantined && !rep.draining {
			return rep
		}
	}
	return nil
}

// scaleAction is the kind of an autoscaler decision; its String is the
// decision's Action and its event-log Kind.
type scaleAction uint8

const (
	actScaleUp scaleAction = iota
	actScaleDown
	actScaleBlocked
	actScaleHold
	numScaleActions
)

var scaleActionNames = [numScaleActions]string{"scale-up", "scale-down", "scale-blocked", "scale-hold"}

func (s scaleAction) String() string { return scaleActionNames[s] }

// decide records one autoscaler decision: an event-log entry carrying the
// typed Decision, its only record.
func (c *Cluster) decide(a *app, act scaleAction, from, to int, reason string) {
	d := &Decision{Time: c.loop.Now(), App: a.cfg.Name, Action: act.String(), From: from, To: to, Reason: reason,
		app: a.idx, act: act}
	c.log(-1, d.Action, fmt.Sprintf("%s %d -> %d (%s)", a.cfg.Name, from, to, reason), subject{decision: d})
}
