// Safe change management: the rollout controller. The paper's six apps are
// living models — weights and code redeploy continually — and at fleet
// scale the #1 self-inflicted outage class is the upgrade itself. This
// file takes a fleet from model version v1 to v2 the way production
// inference stacks do:
//
//	canary -> verdict -> waves of (cordon -> surge -> graceful drain ->
//	uncordon -> verdict) -> done, or automatic rollback at any verdict.
//
// The canary stage places a small v2 cohort beside the v1 fleet and
// diverts a configured traffic fraction to it by request key — no extra
// randomness, so a same-seed replay is byte-identical. The verdict
// compares the two cohorts over a fixed number of observation windows:
// a v2 shed fraction above the v1 cohort's plus a tolerance, a served p99
// over the SLA, or an app error rate above tolerance fails the rollout
// and triggers an automatic rollback (drain every v2 replica, restore v1
// capacity, uncordon everything).
//
// Waves are bounded by maxUnavailable hosts: each wave cordons its hosts
// (placement skips them), surge-places v2 replacements elsewhere, then
// gracefully drains the v1 replicas — admissions stop at drain start, the
// queue keeps dispatching until empty, and a drain deadline bounds the
// wave: residents that cannot finish in time fail over through the router
// (burning failover attempts and retry-budget tokens like any re-route)
// instead of stalling the rollout.
//
// The controller composes with the chaos layer: an open incident (dead or
// partitioned hosts) pauses wave progression and observation — the
// wave-hold/wave-resume pair, mirroring the autoscaler's incident guard —
// and a fresh observation starts after the heal so verdicts never read
// incident damage as a bad version.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"

	"tpusim/internal/fault"
	"tpusim/internal/runtime"
	"tpusim/internal/stats"
)

// RolloutStage is the controller's externally visible state. The numeric
// values are the tpucluster_rollout_state gauge.
type RolloutStage uint8

const (
	// RolloutIdle: no rollout applied, or applied but not yet started.
	RolloutIdle RolloutStage = iota
	// RolloutCanary: the v2 canary cohort is serving its traffic fraction.
	RolloutCanary
	// RolloutWave: a wave is cordoning, draining or under observation.
	RolloutWave
	// RolloutHold: an open incident paused progression (wave-hold).
	RolloutHold
	// RolloutDone: every replica is v2; scale-ups place v2.
	RolloutDone
	// RolloutRolledBack: a verdict failed; the fleet was restored to v1.
	RolloutRolledBack
)

var stageNames = [...]string{"idle", "canary", "wave", "hold", "done", "rolled-back"}

// String renders the stage for snapshots and reports.
func (s RolloutStage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// RolloutPlan is the replayable rollout spec, in the same
// parse/validate/String idiom as ChaosPlan. Zero fields mean defaults.
type RolloutPlan struct {
	// Start is when the rollout begins, virtual seconds. Required > 0.
	Start float64
	// Factor multiplies every v2 batch service time — the seeded "bad
	// version" knob (1 is a faithful upgrade). 0 means 1.
	Factor float64
	// CanaryFrac is the traffic fraction diverted to the canary cohort and
	// the cohort's size as a fraction of each app's replicas (at least one
	// canary per app). 0 means 0.1.
	CanaryFrac float64
	// Windows is how many observation windows feed each verdict. 0 means 3.
	Windows int
	// WindowSeconds is one observation window. 0 means 0.05.
	WindowSeconds float64
	// MaxUnavailable bounds hosts upgraded per wave. 0 means 1.
	MaxUnavailable int
	// DrainSeconds is the graceful-drain deadline: a draining replica's
	// residents fail over through the router when it expires. 0 means 0.05.
	DrainSeconds float64
	// ShedTol is the verdict tolerance on the v2-minus-v1 cohort shed
	// fraction. 0 means 0.02.
	ShedTol float64
	// ErrTol is the verdict ceiling on an app's error rate over the
	// observation. 0 means 0.01.
	ErrTol float64
}

// withDefaults returns the plan with each zero field at its default. It
// runs once, in ApplyRollout; the controller reads only the result.
func (p RolloutPlan) withDefaults() RolloutPlan {
	p.Factor = cmp.Or(p.Factor, 1)
	p.CanaryFrac = cmp.Or(p.CanaryFrac, 0.1)
	p.Windows = cmp.Or(p.Windows, 3)
	p.WindowSeconds = cmp.Or(p.WindowSeconds, 0.05)
	p.MaxUnavailable = cmp.Or(p.MaxUnavailable, 1)
	p.DrainSeconds = cmp.Or(p.DrainSeconds, 0.05)
	p.ShedTol = cmp.Or(p.ShedTol, 0.02)
	p.ErrTol = cmp.Or(p.ErrTol, 0.01)
	return p
}

// String renders the plan in the spec syntax ParseRolloutPlan accepts;
// zero (defaulted) fields are omitted, so Parse(p.String()) == p.
func (p RolloutPlan) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	add("start", ftoa(p.Start))
	if p.Factor != 0 {
		add("factor", ftoa(p.Factor))
	}
	if p.CanaryFrac != 0 {
		add("canary", ftoa(p.CanaryFrac))
	}
	if p.Windows != 0 {
		add("windows", strconv.Itoa(p.Windows))
	}
	if p.WindowSeconds != 0 {
		add("window", ftoa(p.WindowSeconds))
	}
	if p.MaxUnavailable != 0 {
		add("wave", strconv.Itoa(p.MaxUnavailable))
	}
	if p.DrainSeconds != 0 {
		add("drain", ftoa(p.DrainSeconds))
	}
	if p.ShedTol != 0 {
		add("shedtol", ftoa(p.ShedTol))
	}
	if p.ErrTol != 0 {
		add("errtol", ftoa(p.ErrTol))
	}
	return strings.Join(parts, ",")
}

// Validate checks field ranges.
func (p RolloutPlan) Validate() error {
	if !finite(p.Start, p.Factor, p.CanaryFrac, p.WindowSeconds, p.DrainSeconds, p.ShedTol, p.ErrTol) {
		return fmt.Errorf("cluster: rollout plan %s: non-finite number", p)
	}
	if p.Start <= 0 {
		return fmt.Errorf("cluster: rollout plan needs start > 0, got %v", p.Start)
	}
	if p.Factor < 0 {
		return fmt.Errorf("cluster: rollout plan: negative factor %v", p.Factor)
	}
	if p.CanaryFrac < 0 || p.CanaryFrac >= 1 {
		return fmt.Errorf("cluster: rollout plan: canary fraction %v outside [0, 1)", p.CanaryFrac)
	}
	if p.Windows < 0 || p.WindowSeconds < 0 || p.MaxUnavailable < 0 || p.DrainSeconds < 0 {
		return fmt.Errorf("cluster: rollout plan: negative windows/window/wave/drain")
	}
	if p.ShedTol < 0 || p.ErrTol < 0 {
		return fmt.Errorf("cluster: rollout plan: negative tolerance")
	}
	return nil
}

// ParseRolloutPlan parses the -rollout-plan spec: comma-separated
// key=value entries.
//
//	start=0.5      rollout begins at t=0.5s (required)
//	factor=2.5     v2 serves every batch at 2.5x service time (bad version)
//	canary=0.2     20% of traffic to the canary cohort
//	windows=3      observation windows per verdict
//	window=0.05    one observation window, seconds
//	wave=2         hosts upgraded per wave (maxUnavailable)
//	drain=0.05     graceful-drain deadline, seconds
//	shedtol=0.02   verdict tolerance on the v2-v1 shed-fraction delta
//	errtol=0.01    verdict ceiling on the error rate
func ParseRolloutPlan(spec string) (RolloutPlan, error) {
	var p RolloutPlan
	if strings.TrimSpace(spec) == "" {
		return p, fmt.Errorf("cluster: empty rollout spec")
	}
	terms, bad := fault.SpecTerms(spec)
	for _, kv := range terms {
		k, v := kv[0], kv[1]
		var err error
		switch k {
		case "start":
			p.Start, err = strconv.ParseFloat(v, 64)
		case "factor":
			p.Factor, err = strconv.ParseFloat(v, 64)
		case "canary":
			p.CanaryFrac, err = strconv.ParseFloat(v, 64)
		case "windows":
			p.Windows, err = strconv.Atoi(v)
		case "window":
			p.WindowSeconds, err = strconv.ParseFloat(v, 64)
		case "wave":
			p.MaxUnavailable, err = strconv.Atoi(v)
		case "drain":
			p.DrainSeconds, err = strconv.ParseFloat(v, 64)
		case "shedtol":
			p.ShedTol, err = strconv.ParseFloat(v, 64)
		case "errtol":
			p.ErrTol, err = strconv.ParseFloat(v, 64)
		default:
			return RolloutPlan{}, fmt.Errorf("cluster: rollout spec %q: unknown key %q", spec, k)
		}
		if err != nil {
			return RolloutPlan{}, fmt.Errorf("cluster: rollout spec %q: bad value for %s: %v", spec, k, err)
		}
	}
	if bad != "" {
		return RolloutPlan{}, fmt.Errorf("cluster: rollout spec %q: want key=value, got %q", spec, bad)
	}
	if err := p.Validate(); err != nil {
		return RolloutPlan{}, err
	}
	return p, nil
}

// rolloutState is the controller's cluster-level state.
type rolloutState struct {
	plan        RolloutPlan // defaults resolved
	stage       RolloutStage
	resumeStage RolloutStage // stage to restore when a hold clears
	splitKeys   uint64       // of 1024 key slots, how many divert to the canary
	gen         uint64       // voids stale observation/hold timers
	wave        int
	waveHosts   []*host
	// waveRemaining counts this wave's draining v1 replicas; the wave
	// completes when finalizeRemoval drains it to zero.
	waveRemaining int
	windowsSeen   int
	rollbacks     int
	reason        string // last verdict failure, for the snapshot
}

// cohort accumulates one version cohort's outcome over an observation:
// admissions offered and shed, and (v2 only) served latencies.
type cohort struct {
	offered, shed uint64
	lats          latencyLog
}

// appRollout is one app's rollout-local state.
type appRollout struct {
	splitting bool  // canary stage: divert splitKeys/1024 of traffic
	canaryIDs []int // the v2 canary replicas, placement order
	baseline  int   // live replicas at rollout start (rollback target)
	// cohorts[0] is v1, cohorts[1] is v2; reset at each observation start.
	cohorts          [2]cohort
	offBase, errBase uint64 // app counters at observation start
}

// cohortOf returns the accumulator a replica's outcomes feed, nil when no
// rollout is active — the single nil check the hot path pays.
func (a *app) cohortOf(rep *replica) *cohort {
	ro := a.ro
	if ro == nil {
		return nil
	}
	if rep.version >= 2 {
		return &ro.cohorts[1]
	}
	return &ro.cohorts[0]
}

// ApplyRollout validates the plan and schedules the rollout's start on the
// loop. One rollout per cluster: the controller's state (current version,
// service-time factor) persists so post-rollout scale-ups place the right
// version.
func (c *Cluster) ApplyRollout(p RolloutPlan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if c.ro != nil {
		return fmt.Errorf("cluster: a rollout is already applied")
	}
	if err := c.checkTime(p.Start); err != nil {
		return err
	}
	p = p.withDefaults()
	c.ro = &rolloutState{plan: p, splitKeys: uint64(p.CanaryFrac*1024 + 0.5)}
	c.loop.At(p.Start, c.controller(c.rolloutBegin))
	return nil
}

// RolloutStage reports the controller's stage (RolloutIdle without a
// rollout).
func (c *Cluster) RolloutStage() RolloutStage {
	if c.ro == nil {
		return RolloutIdle
	}
	return c.ro.stage
}

// Rollbacks counts automatic rollbacks executed so far.
func (c *Cluster) Rollbacks() int {
	if c.ro == nil {
		return 0
	}
	return c.ro.rollbacks
}

// rolloutActive reports a rollout in progress — the autoscaler freezes
// scale-down while it runs (newest-first removal would eat the canaries).
func (c *Cluster) rolloutActive() bool {
	return c.ro != nil && (c.ro.stage == RolloutCanary || c.ro.stage == RolloutWave || c.ro.stage == RolloutHold)
}

// rolloutLog records a rollout controller transition: a cluster-level
// entry whose span needs nothing beyond its kind and detail.
func (c *Cluster) rolloutLog(kind, detail string) { c.log(-1, kind, detail, subject{}) }

// ---- cordon ----

// cordon keeps the host serving while placement skips it — the wave's
// first step.
func (c *Cluster) cordon(h *host) {
	if h.cordoned {
		return
	}
	h.cordoned = true
	c.log(h.id, "cordon", fmt.Sprintf("host%d cordoned: placement skips it, residents keep serving", h.id), subject{})
}

// uncordon returns the host to placement.
func (c *Cluster) uncordon(h *host) {
	if !h.cordoned {
		return
	}
	h.cordoned = false
	c.log(h.id, "uncordon", fmt.Sprintf("host%d uncordoned: placement resumes", h.id), subject{})
}

// cordonedHosts counts hosts currently cordoned.
func (c *Cluster) cordonedHosts() int {
	n := 0
	for _, h := range c.hosts {
		if h.cordoned {
			n++
		}
	}
	return n
}

// ---- graceful drain ----

// drainReplica begins a graceful drain: the router stops admissions
// immediately, the queue keeps dispatching until empty, and the deadline
// bounds how long the wave waits — see drainExpire.
func (c *Cluster) drainReplica(rep *replica, deadline float64) {
	if rep.draining {
		return
	}
	a := rep.app
	rep.markDraining() // voids the fill timer: a drain dispatches immediately
	rep.graceful = true
	if !rep.serving() && rep.lane.Len() == 0 {
		c.finalizeRemoval(rep)
		return
	}
	c.log(rep.dev.host.id, "drain-begin", fmt.Sprintf("%s replica r%d: graceful drain of %d queued + %d in flight, deadline %.1f ms",
		a.cfg.Name, rep.id, rep.lane.Len(), len(rep.inFlight), deadline*1e3), subject{})
	c.maybeDispatch(rep)
	c.loop.After(deadline, c.controller(func() { c.drainExpire(rep) }))
}

// drainExpire is the drain-deadline hardening: a draining replica whose
// queue could not finish in time fails its residents over through the
// router — with the usual failover accounting (attempt counts, deadline
// gate, retry-budget tokens) — instead of stalling the wave forever.
func (c *Cluster) drainExpire(rep *replica) {
	a := rep.app
	if a.replicas[rep.id] != rep || !rep.draining {
		return // drained gracefully before the deadline
	}
	wasServing := rep.serving()
	orphans, inFlight := rep.orphan()
	if wasServing {
		rep.svcGen++ // void the in-flight completion
		rep.dev.busy = false
		c.tel.onBatchKilled(rep)
	}
	rep.fillGen++
	rep.pending = false
	if len(orphans) > 0 {
		c.log(rep.dev.host.id, "drain-deadline", fmt.Sprintf("%s replica r%d: deadline hit, %d in-flight + %d queued requests fail over",
			a.cfg.Name, rep.id, inFlight, len(orphans)-inFlight), subject{})
	}
	c.finalizeRemoval(rep)
	for _, r := range orphans {
		c.failover(a, r)
	}
	if wasServing {
		c.grantDevice(rep.dev)
	}
}

// ---- the controller state machine ----

// rolloutBegin starts the canary stage: place the v2 cohort beside v1 and
// divert the configured traffic fraction to it.
func (c *Cluster) rolloutBegin() {
	ro := c.ro
	if c.rolloutHoldIfIncident(c.rolloutBegin) {
		return
	}
	ro.stage = RolloutCanary
	c.rolloutLog("rollout", fmt.Sprintf("rollout to v2: factor x%s, canary %.0f%%, %d windows of %s s, wave size %d, drain deadline %s s",
		ftoa(ro.plan.Factor), ro.plan.CanaryFrac*100, ro.plan.Windows,
		ftoa(ro.plan.WindowSeconds), ro.plan.MaxUnavailable, ftoa(ro.plan.DrainSeconds)))
	for _, a := range c.apps {
		aro := &appRollout{baseline: a.liveReplicas()}
		a.ro = aro
		n := max(int(math.Round(ro.plan.CanaryFrac*float64(aro.baseline))), 1)
		for i := 0; i < n; i++ {
			rep, err := c.placeReplica(a, 2, true)
			if err != nil {
				c.rollback(fmt.Sprintf("canary placement failed for %s: %v", a.cfg.Name, err))
				return
			}
			aro.canaryIDs = append(aro.canaryIDs, rep.id)
		}
		aro.splitting = true
		c.rolloutLog("canary", fmt.Sprintf("%s: %d canary replica(s) at v2, %.0f%% of traffic diverted",
			a.cfg.Name, n, ro.plan.CanaryFrac*100))
	}
	c.rolloutObserve(c.canaryVerdict)
}

// rolloutObserve starts a fresh observation: cohort accumulators and
// error baselines reset, then plan.Windows windows elapse before the
// verdict runs. An incident opening mid-observation pauses and restarts
// the observation after the heal, so a verdict never reads incident
// damage as a bad model version.
func (c *Cluster) rolloutObserve(verdict func()) {
	for _, a := range c.apps {
		if aro := a.ro; aro != nil {
			aro.cohorts[0] = cohort{}
			aro.cohorts[1] = cohort{}
			aro.offBase = a.Offered
			aro.errBase = a.Errors
		}
	}
	c.ro.windowsSeen = 0
	c.rolloutWindow(verdict)
}

// rolloutWindow arms one observation window.
func (c *Cluster) rolloutWindow(verdict func()) {
	ro := c.ro
	gen := ro.gen
	c.loop.After(ro.plan.WindowSeconds, c.controller(func() {
		if ro.gen != gen {
			return
		}
		if c.rolloutHoldIfIncident(func() { c.rolloutObserve(verdict) }) {
			return
		}
		ro.windowsSeen++
		if ro.windowsSeen >= ro.plan.Windows {
			verdict()
			return
		}
		c.rolloutWindow(verdict)
	}))
}

// rolloutHoldIfIncident pauses the controller while any host is dead or
// partitioned — the rollout twin of the autoscaler's incident guard. It
// re-checks every window and invokes resume after the fleet heals.
// Reports whether a hold was taken.
func (c *Cluster) rolloutHoldIfIncident(resume func()) bool {
	if c.downHosts == 0 {
		return false
	}
	ro := c.ro
	if ro.stage != RolloutHold {
		ro.resumeStage = ro.stage
		ro.stage = RolloutHold
		c.rolloutLog("wave-hold", fmt.Sprintf("rollout paused: open incident (%d hosts down or partitioned)", c.downHosts))
	}
	gen := ro.gen
	c.loop.After(ro.plan.WindowSeconds, c.controller(func() {
		if ro.gen != gen {
			return
		}
		if c.downHosts > 0 {
			c.rolloutHoldIfIncident(resume)
			return
		}
		ro.stage = ro.resumeStage
		c.rolloutLog("wave-resume", "incident cleared: rollout resumes with a fresh observation")
		resume()
	}))
	return true
}

// rolloutVerdictFail evaluates every app's cohorts over the observation,
// returning the first failure ("" means the verdict passes). The primary
// signal is the cohort shed-fraction delta: shed-at-dispatch converts an
// inflated v2 service time into sheds, not latency, so a bad version
// shows up here first. Served p99 against the SLA and the app error rate
// are the defensive backstops.
func (c *Cluster) rolloutVerdictFail() string {
	plan := c.ro.plan
	for _, a := range c.apps {
		aro := a.ro
		if aro == nil {
			continue
		}
		v1, v2 := &aro.cohorts[0], &aro.cohorts[1]
		if v2.offered > 0 {
			shed2 := float64(v2.shed) / float64(v2.offered)
			shed1 := 0.0
			if v1.offered > 0 {
				shed1 = float64(v1.shed) / float64(v1.offered)
			}
			if shed2 > shed1+plan.ShedTol {
				return fmt.Sprintf("%s: v2 shed %.1f%% vs v1 %.1f%% (tol %.1f%%)",
					a.cfg.Name, shed2*100, shed1*100, plan.ShedTol*100)
			}
		}
		// The percentile fails only when v2 served nothing.
		if qs, err := stats.ChunkedPercentiles(v2.lats.chunks, 99); err == nil && qs[0] > a.plan.SLASeconds {
			return fmt.Sprintf("%s: v2 p99 %.3f ms over the %.3f ms SLA",
				a.cfg.Name, qs[0]*1e3, a.plan.SLASeconds*1e3)
		}
		if off := a.Offered - aro.offBase; off > 0 {
			if errRate := float64(a.Errors-aro.errBase) / float64(off); errRate > plan.ErrTol {
				return fmt.Sprintf("%s: error rate %.2f%% over the %.2f%% tolerance",
					a.cfg.Name, errRate*100, plan.ErrTol*100)
			}
		}
	}
	return ""
}

// canaryVerdict decides the canary stage: promote the cohort into the
// router and start waves, or roll back.
func (c *Cluster) canaryVerdict() {
	if why := c.rolloutVerdictFail(); why != "" {
		c.rolloutLog("canary-verdict", "FAIL: "+why)
		c.rollback(why)
		return
	}
	c.rolloutLog("canary-verdict", "PASS: v2 cohort within tolerance of v1 on every app")
	c.promoteCanaries()
	c.startWave()
}

// promoteCanaries ends the traffic split: canary replicas join the router
// as ordinary v2 replicas.
func (c *Cluster) promoteCanaries() {
	for _, a := range c.apps {
		aro := a.ro
		if aro == nil || !aro.splitting {
			continue
		}
		aro.splitting = false
		joined := 0
		for _, id := range aro.canaryIDs {
			rep := a.replicas[id]
			if rep == nil || rep.draining {
				continue
			}
			if err := a.router.Add(rep.id, 1); err != nil {
				continue
			}
			// Canary traffic was enqueued around the router, so the entry
			// joins without the requests the canary already holds.
			a.router.AddLoad(rep.id, int64(rep.lane.Len()+len(rep.inFlight)))
			if rep.state == runtime.Quarantined {
				// A canary on a host that died mid-canary joins quarantined
				// and re-admits with the host.
				a.router.SetState(rep.id, runtime.Quarantined)
			}
			joined++
		}
		c.rolloutLog("promote", fmt.Sprintf("%s: %d canary replica(s) join the router", a.cfg.Name, joined))
	}
}

// startWave begins the next bounded wave: cordon up to maxUnavailable
// hosts still carrying v1 replicas, surge-place v2 replacements on
// uncordoned hosts, then gracefully drain the v1 residents. No eligible
// host left means the fleet is fully upgraded.
func (c *Cluster) startWave() {
	if c.rolloutHoldIfIncident(c.startWave) {
		return
	}
	ro := c.ro
	hosts := c.nextWaveHosts()
	if len(hosts) == 0 {
		c.rolloutFinish()
		return
	}
	ro.wave++
	ro.stage = RolloutWave
	ro.waveHosts = hosts
	c.rolloutLog("wave", fmt.Sprintf("wave %d: upgrading %s (max unavailable %d)",
		ro.wave, hostList(hosts), ro.plan.MaxUnavailable))
	for _, h := range hosts {
		c.cordon(h)
	}
	// Collect the wave's victims first: draining mutates device replica
	// lists, and the wave counter must be final before any drain can
	// complete synchronously.
	var victims []*replica
	for _, h := range hosts {
		for _, d := range h.devices {
			for _, rep := range d.replicas {
				if rep.version < 2 && !rep.draining {
					victims = append(victims, rep)
				}
			}
		}
	}
	for _, rep := range victims {
		if _, err := c.placeReplica(rep.app, 2, false); err != nil {
			c.rollback(fmt.Sprintf("wave %d: v2 replacement placement failed for %s: %v",
				ro.wave, rep.app.cfg.Name, err))
			return
		}
	}
	// Set the counter before any drain: a replica with nothing queued
	// finalizes synchronously inside drainReplica, and the zero-crossing in
	// finalizeRemoval is what advances the wave.
	ro.waveRemaining = len(victims)
	for _, rep := range victims {
		rep.waveDrain = true
		c.drainReplica(rep, ro.plan.DrainSeconds)
	}
}

// nextWaveHosts picks the wave's hosts: alive, reachable, uncordoned
// hosts still carrying a v1 replica, in id order, bounded by
// maxUnavailable. Hosts unreachable behind an incident are not skipped
// silently — the incident hold at the wave boundary waits for them.
func (c *Cluster) nextWaveHosts() []*host {
	var out []*host
	limit := c.ro.plan.MaxUnavailable
	for _, h := range c.hosts {
		if len(out) >= limit {
			break
		}
		if !h.alive || h.partitioned || h.cordoned {
			continue
		}
		for _, d := range h.devices {
			for _, rep := range d.replicas {
				if rep.version < 2 && !rep.draining {
					out = append(out, h)
					goto next
				}
			}
		}
	next:
	}
	return out
}

// waveDrained completes the wave once its last v1 replica finalizes:
// uncordon the wave's hosts and observe before promoting.
func (c *Cluster) waveDrained() {
	ro := c.ro
	for _, h := range ro.waveHosts {
		c.uncordon(h)
	}
	ro.waveHosts = nil
	c.rolloutLog("wave", fmt.Sprintf("wave %d drained: observing %d windows before promotion",
		ro.wave, ro.plan.Windows))
	c.rolloutObserve(c.waveVerdict)
}

// waveVerdict decides the wave: promote and continue, or roll back.
func (c *Cluster) waveVerdict() {
	ro := c.ro
	if why := c.rolloutVerdictFail(); why != "" {
		c.rollback(fmt.Sprintf("wave %d verdict: %s", ro.wave, why))
		return
	}
	c.rolloutLog("promote", fmt.Sprintf("wave %d promoted: fleet within tolerance", ro.wave))
	c.startWave()
}

// rolloutFinish marks the upgrade complete: every replica is v2 and
// future scale-ups place v2.
func (c *Cluster) rolloutFinish() {
	ro := c.ro
	ro.stage = RolloutDone
	ro.gen++
	for _, a := range c.apps {
		a.curVersion = 2
	}
	c.rolloutLog("rollout-done", fmt.Sprintf("fleet at v2 after %d wave(s), %d rollback(s)", ro.wave, ro.rollbacks))
}

// rollback restores the fleet to v1: uncordon everything, gracefully
// drain every v2 replica (deadline-bounded), and re-place v1 replicas for
// any capacity the waves converted.
func (c *Cluster) rollback(reason string) {
	ro := c.ro
	if ro.stage == RolloutDone || ro.stage == RolloutRolledBack {
		return
	}
	ro.rollbacks++
	ro.reason = reason
	ro.stage = RolloutRolledBack
	ro.gen++ // void pending observation and hold timers
	c.rolloutLog("rollback", "rolling back to v1: "+reason)
	for _, h := range c.hosts {
		if h.cordoned {
			c.uncordon(h)
		}
	}
	for _, a := range c.apps {
		aro := a.ro
		if aro == nil {
			continue
		}
		aro.splitting = false
		drained := 0
		for _, rep := range a.replicas {
			if rep != nil && rep.version >= 2 && !rep.draining {
				c.drainReplica(rep, ro.plan.DrainSeconds)
				drained++
			}
		}
		liveV1 := 0
		for _, rep := range a.replicas {
			if rep != nil && rep.version < 2 && !rep.draining && rep.state != runtime.Quarantined {
				liveV1++
			}
		}
		placed := 0
		for i := liveV1; i < aro.baseline; i++ {
			if _, err := c.placeReplica(a, 1, false); err != nil {
				c.rolloutLog("rollback", fmt.Sprintf("%s: v1 re-placement blocked: %v", a.cfg.Name, err))
				break
			}
			placed++
		}
		c.rolloutLog("rollback", fmt.Sprintf("%s: %d v2 replica(s) draining, %d v1 replica(s) restored",
			a.cfg.Name, drained, placed))
	}
	for _, a := range c.apps {
		a.curVersion = 1
	}
}
