// Package cluster simulates a datacenter fleet of TPU hosts behind a
// front-end router, in virtual time. Section 2 of the paper frames the TPU
// as a fleet component — "the TPU was designed to be a coprocessor ... the
// datacenter need for responses in milliseconds" — and the single-host
// serving stack built in earlier layers (deadline-aware batching, health
// state machine, failover) only tells half that story: placement, routing,
// cross-host failover and autoscaling emerge at pod scale.
//
// The simulator shares the single-server pieces instead of re-deriving
// them: every replica is a latency.Lane — the one implementation of
// bounded-queue admission, the MaxWait fill window, take-up-to-SafeBatch
// and shed-at-dispatch that Table 4 and the serve load sweep also run —
// built from the serve package's resolved Plan and priced from the same
// latency.ServiceModel; replica health is runtime.HealthState, and offered
// load is a workload.Curve driven through a non-homogeneous Poisson
// process. What is the fleet's own lives here: device contention,
// routing, failover, accounting. Everything runs on the internal/des event
// loop — no wall-clock sleeps — so thousands of devices simulate seconds of
// fleet time in milliseconds, and a seeded run replays byte-for-byte.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"tpusim/internal/des"
	"tpusim/internal/latency"
	"tpusim/internal/obs"
	"tpusim/internal/runtime"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// DeviceWeightBytes is the per-device Weight Memory capacity a replica's
// footprint is packed against — the paper's 8 GiB weight DRAM.
const DeviceWeightBytes = 8 << 30

// maxRouteAttempts bounds per-request failover re-routes after a host death.
const maxRouteAttempts = 3

// The autoscaler's thresholds.
const (
	// upUtil is the utilization (window arrival rate over live capacity)
	// above which an app scales up.
	upUtil = 0.75
	// downUtil: when utilization would stay under this even after removing
	// a replica, for two consecutive ticks, one replica drains.
	downUtil = 0.3
	// maxStepUp caps replicas added per app per tick.
	maxStepUp = 2
	// shedUpFrac: a window shed fraction above this forces a scale-up
	// regardless of estimated utilization.
	shedUpFrac = 0.01
)

// AppConfig describes one served application.
type AppConfig struct {
	// Name labels the app in snapshots and logs.
	Name string
	// Service gives batch service times; the per-replica batcher resolves
	// its Plan against it, exactly as the single-host server does. A config
	// may be shared by clusters running on different goroutines, so
	// Service must be safe for concurrent calls.
	Service latency.ServiceModel
	// Policy is the serving policy (MaxBatch and SLASeconds required).
	Policy serve.Policy
	// WeightBytes is the app's Weight Memory footprint; placement only
	// puts a replica on a device with that much capacity free.
	WeightBytes int64
	// Curve is the offered-load profile in virtual time. Like Service, it
	// may be read by clusters on different goroutines at once, so its
	// methods must be safe for concurrent calls.
	Curve workload.Curve
	// InitialReplicas is the starting replica count. 0 means 1.
	InitialReplicas int
	// MinReplicas floors scale-down. 0 means InitialReplicas.
	MinReplicas int
	// MaxReplicas caps scale-up. 0 means one replica per fleet device.
	MaxReplicas int
}

// AutoscaleConfig tunes the load-driven autoscaler.
type AutoscaleConfig struct {
	// Disabled freezes replica counts at their initial placement.
	Disabled bool
	// Interval is the decision tick in virtual seconds. 0 or negative means
	// 0.25; NaN and ±Inf are an error from New.
	Interval float64
}

func (a AutoscaleConfig) interval() float64 {
	if a.Interval <= 0 {
		return 0.25
	}
	return a.Interval
}

// Config describes the fleet.
type Config struct {
	// Hosts and DevicesPerHost size the fleet.
	Hosts, DevicesPerHost int
	// Router selects the routing policy for every app's replica set.
	Router RouterPolicy
	// Apps are the served applications.
	Apps []AppConfig
	// Autoscale tunes the autoscaler.
	Autoscale AutoscaleConfig
	// Seed pins arrivals and request keys; two runs with the same config
	// and seed are byte-identical.
	Seed int64
	// Zones groups hosts into contiguous failure domains (host h is in zone
	// h*Zones/Hosts) that fail and recover as one unit (a ChaosPlan's
	// zone-down / zone-up). Placement spreads an app's replicas across
	// zones before doubling up (zone anti-affinity) and the autoscaler
	// freezes scale-down while a zone is dark. 0 or 1 means one zone — behavior is
	// identical to before zones existed.
	Zones int
	// Retry tunes client-style retries and the anti-storm defenses (token
	// bucket, deadline-aware failover). Zero value: disabled.
	Retry RetryConfig
	// Telemetry opts into fleet observability: virtual-time spans, the
	// FleetMetrics registry and the saturation analyzer's windowed series
	// (see telemetry.go). nil is the guaranteed zero-overhead path — no
	// extra events on the loop, no allocations, byte-identical replays.
	Telemetry *Telemetry
}

// Event is one entry in the cluster's ordered event log: placements,
// kills, quarantines, failovers and autoscaler decisions. A run's log is a
// pure function of (config, seed), and a shorter run's log is a prefix of
// a longer one's — the replay property the failover tests pin. The log is
// also the source every instant span derives from: an entry and its span
// are emitted together by the one function that appends to the log, so a
// state change cannot be logged without being traced or the reverse.
type Event struct {
	// Seq is the global order of the event.
	Seq uint64
	// Time is the virtual time in seconds.
	Time float64
	// Host is the host involved, -1 for cluster-level events.
	Host int
	// Kind is the event type: place, kill, revive, readmit, quarantine,
	// failover-reroute, partition, partition-heal, blackhole, degrade,
	// zone-down, zone-up, retry-budget-exhausted, scale-up, scale-down,
	// scale-blocked, scale-hold, drain, and the rollout controller's
	// rollout, canary, canary-verdict, promote, wave, wave-hold,
	// wave-resume, rollback, rollout-done, cordon, uncordon, drain-begin,
	// drain-deadline.
	Kind string
	// Detail is a human-readable description.
	Detail string
}

// String renders one log line.
func (e Event) String() string {
	return fmt.Sprintf("#%d %.6fs host=%d %s: %s", e.Seq, e.Time, e.Host, e.Kind, e.Detail)
}

// logEntry is one slot of the event log: the entry, and for an autoscaler
// decision the typed Decision it records. The log is the autoscaler's only
// ledger — Snapshot.Decisions and the registry's action counters read it.
type logEntry struct {
	Event
	decision *Decision
}

// request is one in-flight request.
type request struct {
	arrival  float64
	enq      float64 // time of the last admission into a replica queue
	key      uint64
	attempts int
}

// ArrivedAt implements latency.Arrival.
func (r request) ArrivedAt() float64 { return r.arrival }

// device is one accelerator card: Weight Memory capacity and a single
// execution engine its resident replicas' batches serialize on.
type device struct {
	host      *host
	idx       int
	freeBytes int64
	replicas  []*replica
	busy      bool
	waiters   []*replica // replicas with a batch ready, FIFO
}

// host is one machine of the fleet; a dead host takes all its devices and
// replicas with it.
type host struct {
	id      int
	zone    int
	alive   bool
	devices []*device

	// partitioned: the router cannot reach the host (its replicas are
	// quarantined, resident requests black-hole) but the machine is fine.
	partitioned bool
	// slow multiplies every batch service time on the host; 1 is healthy.
	slow float64
	// cordoned: placement skips the host while its residents keep serving —
	// the rollout controller's wave primitive.
	cordoned bool

	// Placement state (see bestDevice): the host's non-draining replicas,
	// and its summary — the fewest replicas on one device, and the most
	// free bytes among the devices that hold that few.
	live       int
	fewest     int
	fewestFree int64
}

// replica is one placed instance of an app: the batching lane of the app's
// resolved serving plan, on a device.
type replica struct {
	id  int
	app *app
	dev *device

	state    runtime.HealthState
	lane     latency.Lane[request]
	inFlight []request // the batch currently on the device, in the lane's buffer
	fillGen  uint64    // invalidates scheduled fill timers
	pending  bool      // queued on the device's waiter list
	svcGen   uint64    // invalidates in-flight completions (host death)
	draining bool

	// Rollout state: the model version served, its service-time scale
	// (1 for v1 — exact identity, so a rollout-free run is byte-identical
	// to before versions existed), whether an in-progress drain finishes
	// its queue gracefully, and whether its removal completes a wave.
	version   int
	svcScale  float64
	graceful  bool
	waveDrain bool

	// Telemetry state for the in-flight batch (meaningful while serving()).
	dispatchAt float64
	trig       trigger
	span       *obs.Span

	// Cumulative outcomes at this replica; telemetry sums them per host.
	routed, completed, shed uint64
}

// app is one application's cluster-level serving state.
type app struct {
	c    *Cluster
	cfg  AppConfig
	idx  int
	plan serve.Plan
	svc  []float64 // memoized batch -> service seconds, index 1..SafeBatch

	router   *Router
	replicas []*replica // by id; nil once a replica is removed
	nextID   int

	// Non-draining replicas by host id and by zone, for placement.
	onHost, inZone []int

	arrivals *workload.NHPP
	keys     *rand.Rand

	// Cumulative request outcomes, and every served request's latency.
	AppCounters
	latencies latencyLog

	// Retry-defense state (active only with Config.Retry.Enabled).
	budgetTokens     float64
	budgetDenyStreak int

	// Autoscaler state. Its decision window is the difference between the
	// cumulative counters and their values at its last tick.
	tickOffered, tickShed uint64
	lowTicks              int
	holdLogged            bool // incident guard announced for this incident

	// Rollout state: the version scale-ups place, the app's rollout-local
	// bookkeeping (nil without a rollout), and the one-shot rollout-guard
	// announcement flag.
	curVersion  int
	ro          *appRollout
	rolloutHold bool
}

// liveReplicas counts routable (non-quarantined, non-draining) replicas.
func (a *app) liveReplicas() int {
	n := 0
	for _, rep := range a.replicas {
		if rep != nil && rep.state != runtime.Quarantined && !rep.draining {
			n++
		}
	}
	return n
}

// latencyLog holds served latencies in completion order. It grows by
// fixed chunks, so an append never copies what the log already holds, and
// a percentile reads the chunks where they lie (stats.ChunkedPercentiles).
type latencyLog struct {
	chunks [][]float64 // each full but the last
}

// latencyChunk is latencyLog's allocation unit: 32 KiB of latencies.
const latencyChunk = 4096

func (l *latencyLog) add(lat float64) {
	if len(l.chunks) == 0 || len(l.chunks[len(l.chunks)-1]) == latencyChunk {
		l.chunks = append(l.chunks, make([]float64, 0, latencyChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, lat)
}

// Decision is one autoscaler action on one app.
type Decision struct {
	Time     float64
	App      string
	Action   string // scale-up, scale-down, scale-blocked, scale-hold
	From, To int
	Reason   string

	app int         // the app's index: New does not require unique names
	act scaleAction // Action, as an index
}

// String renders one decision line.
func (d Decision) String() string {
	return fmt.Sprintf("%.3fs %-6s %-13s %d -> %d (%s)", d.Time, d.App, d.Action, d.From, d.To, d.Reason)
}

// Cluster is the simulated fleet.
type Cluster struct {
	cfg    Config
	loop   *des.Loop
	hosts  []*host
	apps   []*app
	events []logEntry
	tel    *Telemetry
	counts eventCounts

	// Failure-domain and incident bookkeeping (see chaos.go).
	zoneAlive []int // alive hosts per zone
	downHosts int   // hosts currently dead or partitioned
	incidents []Incident

	// Rollout controller state (see rollout.go); nil without a rollout.
	ro *rolloutState
}

// New builds the fleet: hosts and devices, resolved per-app serving plans,
// and the initial placement. It fails if any app has no deadline-safe
// operating point (the caller decides whether to drop the app — CNN1 under
// a 7 ms SLA — or abort) or if the initial replicas do not fit.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts < 1 || cfg.DevicesPerHost < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 host and 1 device per host, got %dx%d", cfg.Hosts, cfg.DevicesPerHost)
	}
	if len(cfg.Apps) == 0 {
		return nil, fmt.Errorf("cluster: no apps configured")
	}
	if cfg.Zones > cfg.Hosts {
		return nil, fmt.Errorf("cluster: %d zones need at least %d hosts, have %d", cfg.Zones, cfg.Zones, cfg.Hosts)
	}
	if cfg.Zones < 0 {
		return nil, fmt.Errorf("cluster: negative zone count %d", cfg.Zones)
	}
	if iv := cfg.Autoscale.Interval; math.IsNaN(iv) || math.IsInf(iv, 0) {
		return nil, fmt.Errorf("cluster: autoscale interval %v is not a finite number of seconds", iv)
	}
	c := &Cluster{cfg: cfg, loop: &des.Loop{}}
	zones := cfg.zones()
	c.zoneAlive = make([]int, zones)
	for h := 0; h < cfg.Hosts; h++ {
		hst := &host{id: h, zone: h * zones / cfg.Hosts, alive: true, slow: 1}
		for d := 0; d < cfg.DevicesPerHost; d++ {
			hst.devices = append(hst.devices, &device{host: hst, idx: d, freeBytes: DeviceWeightBytes})
		}
		hst.summarize()
		c.hosts = append(c.hosts, hst)
		c.zoneAlive[hst.zone]++
	}
	fleetDevices := cfg.Hosts * cfg.DevicesPerHost
	for i, ac := range cfg.Apps {
		if ac.Name == "" {
			return nil, fmt.Errorf("cluster: app %d has no name", i)
		}
		if ac.Service == nil || ac.Curve == nil {
			return nil, fmt.Errorf("cluster: app %s needs a service model and a load curve", ac.Name)
		}
		if ac.WeightBytes < 0 || ac.WeightBytes > DeviceWeightBytes {
			return nil, fmt.Errorf("cluster: app %s footprint %d does not fit a %d-byte device",
				ac.Name, ac.WeightBytes, DeviceWeightBytes)
		}
		plan, err := ac.Policy.Resolve(ac.Service)
		if err != nil {
			return nil, fmt.Errorf("cluster: app %s: %w", ac.Name, err)
		}
		if ac.InitialReplicas <= 0 {
			ac.InitialReplicas = 1
		}
		if ac.MinReplicas <= 0 {
			ac.MinReplicas = ac.InitialReplicas
		}
		if ac.MaxReplicas <= 0 {
			ac.MaxReplicas = fleetDevices
		}
		a := &app{
			c:          c,
			cfg:        ac,
			idx:        i,
			plan:       plan,
			router:     NewRouter(cfg.Router),
			keys:       rand.New(rand.NewSource(cfg.Seed*7919 + int64(i)*104729 + 1)),
			onHost:     make([]int, cfg.Hosts),
			inZone:     make([]int, zones),
			curVersion: 1,
		}
		// Memoize service times up to the safe batch: the dispatcher prices
		// every batch from this table instead of re-running the analytic
		// model per dispatch.
		a.svc = make([]float64, plan.SafeBatch+1)
		for b := 1; b <= plan.SafeBatch; b++ {
			s, err := ac.Service.BatchSeconds(b)
			if err != nil {
				return nil, fmt.Errorf("cluster: app %s batch %d: %w", ac.Name, b, err)
			}
			if s <= 0 {
				return nil, fmt.Errorf("cluster: app %s batch %d: non-positive service time %v", ac.Name, b, s)
			}
			a.svc[b] = s
		}
		a.arrivals, err = workload.NewNHPP(ac.Curve, cfg.Seed*31+int64(i)*7+11)
		if err != nil {
			return nil, fmt.Errorf("cluster: app %s: %w", ac.Name, err)
		}
		c.apps = append(c.apps, a)
	}
	// Initial placement, interleaved across apps so early replicas of every
	// app land on distinct hosts before any app doubles up.
	maxInit := 0
	for _, a := range c.apps {
		maxInit = max(maxInit, a.cfg.InitialReplicas)
	}
	for round := 0; round < maxInit; round++ {
		for _, a := range c.apps {
			if round >= a.cfg.InitialReplicas {
				continue
			}
			if _, err := c.place(a); err != nil {
				return nil, fmt.Errorf("cluster: initial placement of %s replica %d: %w", a.cfg.Name, round, err)
			}
		}
	}
	// Prime each app's arrival chain and the autoscaler tick chain.
	for _, a := range c.apps {
		c.scheduleNextArrival(a)
	}
	if !cfg.Autoscale.Disabled {
		c.loop.At(cfg.Autoscale.interval(), c.controller(c.autoscaleTick))
	}
	c.tel = cfg.Telemetry
	c.tel.attach(c)
	return c, nil
}

// log is the one emission point of a state change: it appends the entry to
// the ordered log and derives the entry's instant span from it. on carries
// the typed facts the span needs that the entry only has as prose.
func (c *Cluster) log(hostID int, kind, detail string, on subject) {
	e := Event{Seq: uint64(len(c.events)) + 1, Time: c.loop.Now(), Host: hostID, Kind: kind, Detail: detail}
	c.events = append(c.events, logEntry{e, on.decision})
	c.tel.logSpan(e, on)
}

// Events returns the full ordered event log.
func (c *Cluster) Events() []Event {
	out := make([]Event, len(c.events))
	for i, e := range c.events {
		out[i] = e.Event
	}
	return out
}

// EventsProcessed returns the discrete-event count executed so far.
func (c *Cluster) EventsProcessed() uint64 { return c.loop.Processed() }

// eventCounts splits EventsProcessed by what fired. A voided fill timer or
// completion found its replica's generation moved on — a dispatch, death
// or drain came first — and did nothing but take a calendar slot. Only
// TestEventCounts reads it.
type eventCounts struct {
	arrivals          uint64
	fillTimers        uint64
	fillTimersVoided  uint64
	completions       uint64
	completionsVoided uint64
	// controller counts every closure event: autoscaler, chaos, rollout
	// and telemetry ticks, and actions scheduled through the Cluster.
	controller uint64
}

// Run advances the fleet to the given virtual time. Segments compose:
// Run(2) then Run(5) is Run(5).
func (c *Cluster) Run(until float64) {
	c.loop.RunUntil(until)
	if c.tel != nil && c.tel.Metrics != nil {
		c.telemetryFlush()
	}
}

// checkTime reports whether the calendar accepts t. des.Schedule panics on
// a NaN or past time — right for a bug in the simulator, wrong for a value
// that arrived in a plan spec or in a call made after Run — so both are
// errors here.
func (c *Cluster) checkTime(t float64) error {
	if now := c.loop.Now(); !(t >= now) {
		return fmt.Errorf("cluster: cannot schedule at t=%v: not a time at or after now (%v)", t, now)
	}
	return nil
}

// The three per-request events are handler views of objects that already
// exist, so scheduling one allocates nothing: the loop stores the pointer
// and the one word the firing needs. Rare controller events (chaos,
// rollout, autoscaler, telemetry) stay closures through loop.At / After.
type (
	arrival    app     // arg: the request key
	fillTimer  replica // arg: the fillGen the timer was armed under
	completion replica // arg: the svcGen the batch was dispatched under
)

// scheduleNextArrival draws the app's next arrival and request key and
// queues the arrival event. The chain is infinite; Run's horizon bounds
// what fires.
func (c *Cluster) scheduleNextArrival(a *app) {
	c.loop.Schedule(a.arrivals.Next(), (*arrival)(a), a.keys.Uint64())
}

// controller wraps a closure event so its firing is counted.
func (c *Cluster) controller(fn func()) func() {
	return func() {
		c.counts.controller++
		fn()
	}
}

// Fire admits one request; its arrival instant is the event's own time.
func (ar *arrival) Fire(key uint64) {
	a := (*app)(ar)
	c := a.c
	c.counts.arrivals++
	c.scheduleNextArrival(a)
	a.Offered++
	c.earnRetryToken(a)
	c.route(a, request{arrival: c.loop.Now(), key: key})
}

// Fire looks at the replica again once its head has waited MaxWait. Every
// dispatch, death and drain bumps fillGen, voiding the timer.
func (ft *fillTimer) Fire(gen uint64) {
	rep := (*replica)(ft)
	c := rep.app.c
	if rep.fillGen != gen {
		c.counts.fillTimersVoided++
		return
	}
	c.counts.fillTimers++
	c.maybeDispatch(rep)
}

// Fire retires the in-flight batch, unless the host died (or the drain
// expired) under it: its requests failed over and svcGen moved on.
func (cp *completion) Fire(gen uint64) {
	rep := (*replica)(cp)
	c := rep.app.c
	if rep.svcGen != gen {
		c.counts.completionsVoided++
		return
	}
	c.counts.completions++
	c.complete(rep)
}

// route sends a request through the app's router into a replica queue.
// During the canary stage a fixed fraction of key space diverts to the
// canary cohort — keyed, not random, so same-seed replay stays
// byte-identical.
func (c *Cluster) route(a *app, r request) {
	if ro := a.ro; ro != nil && ro.splitting && len(ro.canaryIDs) > 0 && r.key&1023 < c.ro.splitKeys {
		id := ro.canaryIDs[int((r.key>>10)%uint64(len(ro.canaryIDs)))]
		if rep := a.replicas[id]; rep != nil && rep.state != runtime.Quarantined && !rep.draining &&
			rep.dev.host.alive && !rep.dev.host.partitioned {
			c.enqueue(rep, r)
			return
		}
	}
	id, ok := a.router.Route(r.key)
	if !ok {
		a.Errors++
		return
	}
	c.enqueue(a.replicas[id], r)
}

// BatchSeconds implements latency.ServiceModel: the app's memoized curve,
// stretched by the host's chaos slow-down and the replica's rollout factor.
func (rep *replica) BatchSeconds(n int) (float64, error) {
	return rep.app.svc[n] * rep.dev.host.slow * rep.svcScale, nil
}

// serving reports whether the replica has a batch on its device.
func (rep *replica) serving() bool { return rep.inFlight != nil }

// orphan empties the replica: its in-flight batch (copied out, because the
// lane's next Take overwrites the buffer) followed by its queue. The pending
// completion reads inFlight when it fires, so every caller that orphans a
// serving replica must also bump svcGen to void it.
func (rep *replica) orphan() (orphans []request, inFlight int) {
	inFlight = len(rep.inFlight)
	orphans = rep.lane.Drain(append([]request(nil), rep.inFlight...))
	rep.inFlight = nil
	return orphans, inFlight
}

// enqueue offers the request to the replica's lane. With retries enabled,
// a refused request gets another spin through the router while its
// deadline, attempt count and the app's retry budget allow — only the
// final give-up counts as a shed.
func (c *Cluster) enqueue(rep *replica, r request) {
	a := rep.app
	co := a.cohortOf(rep)
	if co != nil {
		co.offered++
	}
	r.enq = c.loop.Now()
	if !rep.lane.Offer(r) {
		if co != nil {
			co.shed++ // queue pressure counts against the cohort even if retried
		}
		if c.cfg.Retry.Enabled && c.shedRetry(a, r) {
			return
		}
		a.ShedQueue++
		rep.shed++
		return
	}
	rep.routed++
	a.router.AddLoad(rep.id, 1)
	c.maybeDispatch(rep)
}

// maybeDispatch decides whether the replica's head batch should go now,
// wait for fill, or wait for the device.
func (c *Cluster) maybeDispatch(rep *replica) {
	if rep.lane.Len() == 0 || rep.serving() || rep.pending {
		return
	}
	if !rep.dev.host.alive || rep.state == runtime.Quarantined {
		return
	}
	if rep.dev.busy {
		rep.pending = true
		rep.dev.waiters = append(rep.dev.waiters, rep)
		return
	}
	due, full := rep.lane.Due()
	switch {
	case full:
		c.dispatch(rep, trigBatchFull)
	case c.loop.Now() >= due || rep.draining:
		// A gracefully draining replica stops waiting for fill: admissions
		// have ceased, so the queue can only shrink — flush it.
		c.dispatch(rep, trigFillWait)
	default:
		c.loop.Schedule(due, (*fillTimer)(rep), rep.fillGen)
	}
}

// dispatch takes the lane's next batch — up to SafeBatch requests, minus
// the ones shed because they can no longer meet the SLA — and puts it on
// the device. trig names what fired the dispatch; telemetry uses it to
// attribute the batch's queue time to fill waiting vs device contention.
func (c *Cluster) dispatch(rep *replica, trig trigger) {
	a := rep.app
	rep.fillGen++
	rep.pending = false
	now := c.loop.Now()
	// The replica prices from the app's memoized table and cannot fail.
	kept, shed, svc, _ := rep.lane.Take(now, rep)
	if expired := len(shed); expired > 0 {
		a.Expired += uint64(expired)
		rep.shed += uint64(expired)
		if co := a.cohortOf(rep); co != nil {
			co.shed += uint64(expired)
		}
		a.router.AddLoad(rep.id, -int64(expired))
	}
	if len(kept) == 0 {
		// Nothing queued, or the entire batch was stale; try again with
		// what is queued now.
		c.maybeDispatch(rep)
		return
	}
	rep.inFlight = kept
	rep.dev.busy = true
	rep.dispatchAt = now
	rep.trig = trig
	c.tel.onDispatch(rep, len(kept), trig)
	c.loop.Schedule(now+svc, (*completion)(rep), rep.svcGen)
}

// complete retires the replica's in-flight batch and hands the device to
// the next waiting replica, FIFO.
func (c *Cluster) complete(rep *replica) {
	a := rep.app
	batch, done := rep.inFlight, c.loop.Now()
	c.tel.onComplete(rep, batch, done)
	// The canary verdict reads only the v2 cohort's served latencies.
	var v2 *cohort
	if rep.version >= 2 {
		v2 = a.cohortOf(rep)
	}
	for _, r := range batch {
		lat := done - r.arrival
		a.latencies.add(lat)
		a.Completed++
		rep.completed++
		if v2 != nil {
			v2.lats.add(lat)
		}
	}
	a.router.AddLoad(rep.id, -int64(len(batch)))
	rep.inFlight = nil
	rep.dev.busy = false
	if rep.draining && (!rep.graceful || rep.lane.Len() == 0) {
		c.finalizeRemoval(rep)
		c.grantDevice(rep.dev)
		return
	}
	c.grantDevice(rep.dev)
	c.maybeDispatch(rep)
}

// grantDevice pops the first still-interested waiter and dispatches it.
func (c *Cluster) grantDevice(d *device) {
	for len(d.waiters) > 0 && !d.busy {
		next := d.waiters[0]
		d.waiters = d.waiters[:copy(d.waiters, d.waiters[1:])]
		if next.pending && next.lane.Len() > 0 && !next.serving() {
			c.dispatch(next, trigDeviceFree)
		} else {
			next.pending = false
		}
	}
}

// killHost executes a hard host death: every replica on it is
// quarantined, in-flight batches are lost, and queued plus in-flight
// requests fail over through the router to surviving hosts. why tags the
// incident trigger (host-kill, zone-down, flap). Death is not one-way:
// reviveHost (chaos.go) brings the host back and re-admits its replicas.
func (c *Cluster) killHost(h *host, why string) {
	if !h.alive {
		return
	}
	h.alive = false
	c.zoneAlive[h.zone]--
	if h.partitioned {
		// Already counted down and quarantined; the kill just upgrades the
		// incident's trigger set.
		h.partitioned = false
		c.incidentAddKind(why)
	} else {
		c.incidentBegin(why)
	}
	c.log(h.id, "kill", fmt.Sprintf("host%d hard-killed", h.id), subject{})
	// Cross-host failover: queued and in-flight requests re-route through
	// the router to surviving replicas.
	c.evictHost(h, "host dead", func(rep *replica, orphans []request, inFlight int) {
		a := rep.app
		c.log(h.id, "failover-reroute", fmt.Sprintf("%s replica r%d: %d in-flight + %d queued requests re-routed",
			a.cfg.Name, rep.id, inFlight, len(orphans)-inFlight), subject{})
		for _, r := range orphans {
			c.failover(a, r)
		}
	})
}

// evictHost takes every replica on the host out of service — a hard kill
// and a network partition look the same to the router — and hands each
// replica's stranded requests (in-flight batch first, then the queue) to
// strand, which decides what becomes of them. strand is not called for a
// replica that held none.
func (c *Cluster) evictHost(h *host, reason string, strand func(rep *replica, orphans []request, inFlight int)) {
	for _, d := range h.devices {
		d.busy = false
		d.waiters = nil
		for _, rep := range d.replicas {
			a := rep.app
			c.tel.onBatchKilled(rep)
			// Void in-flight completions and fill timers: results computed on
			// an unreachable host never reach the router.
			rep.svcGen++
			rep.fillGen++
			rep.pending = false
			// The health machine: an unreachable host's replicas go straight
			// to Quarantined, and the router stops sending them traffic.
			if rep.state != runtime.Quarantined {
				rep.state = runtime.Quarantined
				a.router.SetState(rep.id, runtime.Quarantined)
				c.log(h.id, "quarantine", fmt.Sprintf("%s replica r%d (host%d/dev%d) healthy -> quarantined: %s",
					a.cfg.Name, rep.id, h.id, d.idx, reason), subject{rep: rep})
			}
			orphans, inFlight := rep.orphan()
			a.router.AddLoad(rep.id, -int64(len(orphans)))
			if len(orphans) > 0 {
				strand(rep, orphans, inFlight)
			}
		}
	}
}

// failover re-routes one request that lost its replica (host death or a
// partition timeout). A request that exhausts maxRouteAttempts (or finds
// no routable replica) is an error — the client-visible failure the
// acceptance bound caps at 1%. With retries enabled, two further gates
// apply before the re-route: deadline-aware failover refuses a request
// whose remaining SLA cannot cover another service time, and the app's
// retry budget refuses once the token bucket is empty — failing fast
// instead of feeding a storm.
func (c *Cluster) failover(a *app, r request) {
	r.attempts++
	if r.attempts > maxRouteAttempts {
		a.Errors++
		return
	}
	if c.cfg.Retry.Enabled {
		if !c.deadlineCovers(a, r) {
			a.DeadlineDrops++
			a.Errors++
			return
		}
		if !c.takeRetryToken(a) {
			a.Errors++
			return
		}
		a.Retries++
	}
	a.Failovers++
	c.route(a, r)
}
