// Fleet telemetry: the cluster simulator's observability seam. A Cluster
// built with Config.Telemetry gains three things, all stamped in *virtual*
// time on the discrete-event clock:
//
//   - Spans: every dispatched batch is a span on its device's track inside
//     its host's Chrome-trace process group, sampled completed requests are
//     spans on the app's track, and the state changes the event log records
//     — host kills, quarantines, rollout steps, autoscaler decisions — are
//     instant spans on cluster-level tracks. The obs.Tracer's
//     clock is rerouted through the des loop, so an exported trace shows
//     the whole ramp — kill, failover storm, scale-ups — on one timeline
//     Perfetto can load.
//   - FleetMetrics: a mutex-protected registry of per-app x per-host
//     rollups (routed/served/shed), latency-component histograms
//     (obs.Histogram, the one bucket geometry), dispatch-trigger counters,
//     device busy-time integration, and a windowed time series the
//     saturation analyzer and SLO burn-rate computation read. It renders,
//     through the fleetFamilies table and obs.Render, as Prometheus
//     exposition, so a live scrape of a running simulation works exactly
//     like scraping the wall-clock server.
//   - Latency attribution: each completed request's latency decomposes
//     into failover delay (time lost re-routing after a host death or
//     drain), fill wait or queue wait (the time between final enqueue and
//     dispatch, attributed by what triggered the dispatch), and service
//     time.
//
// The simulator keeps the only set of books. Who owns which number:
//
//	simulator's, sampled at the     the app's AppCounters (offered through blackholed,
//	window tick and at the end of   copied whole), per-host routed / completed / shed
//	Run (FleetMetrics.sample)       (replica counters; onRetire folds a departing
//	                                replica's), queue depth, live replicas, zone and
//	                                rollout gauges
//	simulator's event log, read at  autoscaler actions (the log's decision entries,
//	the same instants (sampleFleet) counted by app index and action)
//	simulator's, derived from the   every instant span
//	log entry as Cluster.log
//	appends it (logSpan)
//	registry's, pushed by           latency-component histograms, busy seconds, batch
//	onDispatch / onComplete /       sizes, dispatch triggers, batch and request spans
//	onBatchKilled
//
// A closed Window is the difference between two ticks' samples, so the
// request path never takes the registry lock to count. The price is
// staleness, not error: a scrape from another goroutine in the middle of
// Run reads every sampled counter as of the last sampler tick
// (tpucluster_virtual_seconds says when) while the pushed histograms run up
// to one window ahead; when Run returns the two agree exactly.
//
// Telemetry is strictly opt-in and passive: with Config.Telemetry nil the
// simulator schedules no extra events, allocates nothing, and replays
// byte-identically to a build without this file. Every hook is nil-safe on
// the *Telemetry receiver, mirroring the obs package's disabled fast path.
package cluster

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"tpusim/internal/obs"
)

// Telemetry wires a Cluster's observability. Any field may be nil: a nil
// Tracer records no spans, a nil Metrics keeps no counters. The zero
// Telemetry is valid and inert (but prefer a nil *Telemetry in Config —
// that is the guaranteed zero-overhead path).
type Telemetry struct {
	// Tracer receives virtual-time spans. The cluster installs its
	// discrete-event clock on it (obs.Tracer.SetClock), so do not share one
	// tracer between a cluster and wall-clock code.
	Tracer *obs.Tracer
	// Metrics is the fleet metrics registry; NewFleetMetrics builds one.
	Metrics *FleetMetrics
	// SampleEvery keeps one dispatched batch's spans — the batch span plus
	// its member requests' spans — in every N per app (head sampling at
	// dispatch, inherited by the batch's requests, so a kept trace is never
	// half-recorded). <= 1 keeps every batch. Host kills, quarantines and
	// autoscaler decisions are always recorded: they are rare and they are
	// the plot.
	SampleEvery int

	batchSeq []uint64 // per-app dispatch counter for batch-span sampling
	hostProc []string // interned "hostN" process names
	devTrack []string // interned "devN" track names
}

// vtime maps virtual seconds onto the trace epoch (the Unix epoch), so
// span timestamps are pure functions of the simulation and two same-seed
// runs export identical traces.
func vtime(seconds float64) time.Time {
	return time.Unix(0, int64(seconds*1e9)).UTC()
}

// attach wires the telemetry into a freshly built cluster: install the
// virtual clock, register the fleet shape with the metrics registry, and
// start the window sampler tick.
func (t *Telemetry) attach(c *Cluster) {
	if t == nil {
		return
	}
	if t.Tracer != nil {
		t.Tracer.SetClock(func() time.Time { return vtime(c.loop.Now()) })
		t.batchSeq = make([]uint64, len(c.apps))
		// Intern the per-host process and per-device track names: the
		// dispatch hot path must not concatenate strings per batch.
		t.hostProc = make([]string, len(c.hosts))
		for h := range t.hostProc {
			t.hostProc[h] = "host" + strconv.Itoa(h)
		}
		t.devTrack = make([]string, c.cfg.DevicesPerHost)
		for d := range t.devTrack {
			t.devTrack[d] = "dev" + strconv.Itoa(d)
		}
	}
	if t.Metrics != nil {
		names := make([]string, len(c.apps))
		for i, a := range c.apps {
			names[i] = a.cfg.Name
		}
		t.Metrics.register(len(c.hosts), c.cfg.DevicesPerHost, c.cfg.zones(), names)
		c.loop.Every(t.Metrics.window, c.controller(c.telemetryTick))
	}
}

// dispatch triggers: what made a batch leave the queue. The distinction
// drives both latency attribution (fill wait vs device-queue wait) and
// bottleneck analysis (an app whose dispatches overwhelmingly fire on the
// fill timer with near-empty batches is fill-window-limited).
type trigger uint8

const (
	trigBatchFull trigger = iota
	trigFillWait
	trigDeviceFree
	numTriggers
)

func (t trigger) String() string {
	switch t {
	case trigBatchFull:
		return "batch-full"
	case trigFillWait:
		return "fill-timer"
	case trigDeviceFree:
		return "device-free"
	}
	return "unknown"
}

// ---- hooks called from the simulator hot path ----
//
// Only what the simulator does not keep itself is pushed (see the owner
// table above): the latency components, busy time and spans of a dispatched
// batch. Every hook is nil-safe and does nothing when the relevant sink is
// nil, so instrumented call sites need no guards and the telemetry-off path
// stays allocation-free (pinned by TestTelemetryDisabledAllocs).

// onRetire folds a departing replica's cumulative counters into the
// registry before placement forgets the replica, so tick-time sampling
// (which sums over live replicas) stays exact across scale-downs.
func (t *Telemetry) onRetire(rep *replica) {
	if t == nil || t.Metrics == nil {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	f.apps[rep.app.idx].retired[rep.dev.host.id].add(rep)
	f.mu.Unlock()
}

// onDispatch records a batch leaving a replica's queue and opens its span
// on the device track of the host's process group. The span stays open on
// the replica until onComplete or onBatchKilled closes it.
func (t *Telemetry) onDispatch(rep *replica, n int, trig trigger) {
	if t == nil {
		return
	}
	if f := t.Metrics; f != nil {
		f.mu.Lock()
		am := f.apps[rep.app.idx]
		am.batches++
		am.batched += uint64(n)
		am.trig[trig]++
		f.mu.Unlock()
	}
	if t.Tracer != nil {
		// Head sampling at batch granularity: the counter bump is the whole
		// cost of an unsampled dispatch, which is what keeps the enabled
		// path inside the throughput gate at pod scale.
		if t.SampleEvery > 1 {
			seq := t.batchSeq[rep.app.idx]
			t.batchSeq[rep.app.idx]++
			if seq%uint64(t.SampleEvery) != 0 {
				return
			}
		}
		_, sp := t.Tracer.StartRoot(context.Background(), rep.app.cfg.Name,
			t.devTrack[rep.dev.idx],
			obs.Int("replica", rep.id),
			obs.Int("batch", n),
			obs.String("trigger", trig.String()))
		sp.SetProc(t.hostProc[rep.dev.host.id])
		rep.span = sp
	}
}

// onComplete retires a served batch: component histograms, busy-time
// integration, the batch span, and sampled request spans. Called before the
// replica's dispatch state is reset.
func (t *Telemetry) onComplete(rep *replica, batch []request, done float64) {
	if t == nil {
		return
	}
	a := rep.app
	hostID := rep.dev.host.id
	svcSeconds := done - rep.dispatchAt
	fillTriggered := rep.trig != trigDeviceFree
	if f := t.Metrics; f != nil {
		f.mu.Lock()
		am := f.apps[a.idx]
		am.busySeconds += svcSeconds
		f.hosts[hostID].busySeconds += svcSeconds
		// One bucket computation for the batch's shared service time; the
		// end-to-end latency lands in the open window's histogram and folds
		// into the cumulative one when the window closes.
		am.service.ObserveN(svcSeconds, uint64(len(batch)))
		for _, r := range batch {
			wait := rep.dispatchAt - r.enq
			if fillTriggered {
				am.fillWait.Observe(wait)
			} else {
				am.queueWait.Observe(wait)
			}
			if fo := r.enq - r.arrival; fo > 0 {
				am.failoverDelay.Observe(fo)
			}
			am.winLat.Observe(done - r.arrival)
		}
		f.mu.Unlock()
	}
	if t.Tracer != nil && rep.span != nil {
		// A sampled batch brings its member requests along: each is a
		// span on the app's track spanning arrival to completion, parented
		// under the batch span, kept as one group and built when read.
		g := &requestSpans{
			trace: rep.span.TraceID(), parent: rep.span.ID(),
			app: a.cfg.Name, host: hostID, replica: rep.id,
			dispatchAt: rep.dispatchAt, done: done,
			reqs: make([]requestRecord, len(batch)),
		}
		for i, r := range batch {
			g.reqs[i] = requestRecord{arrival: r.arrival, enq: r.enq, attempts: r.attempts}
		}
		t.Tracer.EmitGroup(g)
		rep.span.SetAttr(obs.Int("served", len(batch)))
		rep.span.End()
		rep.span = nil
	}
}

// requestSpans is a sampled batch's request spans as one obs.SpanGroup:
// 24 bytes for each request and the values the batch shares once. It
// holds values only, so a kept trace keeps no replica or cluster alive.
type requestSpans struct {
	trace, parent    uint64
	app              string
	host, replica    int
	dispatchAt, done float64
	reqs             []requestRecord
}

// requestRecord is what sets one request's span apart.
type requestRecord struct {
	arrival, enq float64 // enq: the last admission into a replica queue
	attempts     int
}

func (g *requestSpans) Len() int { return len(g.reqs) }

func (g *requestSpans) Span(i int) obs.SpanData {
	r := g.reqs[i]
	return obs.SpanData{
		Trace:  g.trace,
		Parent: g.parent,
		Name:   "request",
		Track:  g.app,
		Proc:   "apps",
		Start:  vtime(r.arrival),
		End:    vtime(g.done),
		Attrs: []obs.Attr{
			obs.Int("host", g.host),
			obs.Int("replica", g.replica),
			obs.Int("attempts", r.attempts),
			obs.Float("wait_ms", (g.dispatchAt-r.enq)*1e3),
			obs.Float("service_ms", (g.done-g.dispatchAt)*1e3),
		},
	}
}

// onBatchKilled closes a serving replica's open batch span when its host
// dies under it or a drain deadline cuts the batch short; the batch's
// requests fail over and complete elsewhere.
func (t *Telemetry) onBatchKilled(rep *replica) {
	if t == nil || t.Tracer == nil || rep.span == nil {
		return
	}
	rep.span.SetAttr(obs.String("outcome", "killed"))
	rep.span.End()
	rep.span = nil
}

// subject carries what an event's instant span needs beyond the log
// entry's Host, Kind and Detail. It travels typed beside the entry so the
// derivation never parses the prose.
type subject struct {
	zone     int       // zone-down, zone-up
	rep      *replica  // quarantine
	factor   float64   // degrade
	decision *Decision // scale-up, scale-down, scale-blocked, scale-hold; kept in the log
}

// logSpan derives the instant span of the event-log entry Cluster.log just
// appended: lifecycle and chaos events on the cluster's hosts track (a kill
// or revive also on the host's own lifecycle track), a quarantine on its
// device's track, rollout steps and autoscaler decisions on tracks of their
// own. Kinds without a case (place, readmit, failover-reroute, blackhole,
// retry-budget-exhausted, drain*) are log-only.
func (t *Telemetry) logSpan(e Event, on subject) {
	if t == nil || t.Tracer == nil {
		return
	}
	name, track, proc := "", "hosts", "cluster"
	var attrs []obs.Attr
	switch e.Kind {
	case "kill", "revive", "partition", "partition-heal", "cordon", "uncordon":
		name = e.Kind + " host" + strconv.Itoa(e.Host)
	case "zone-down", "zone-up":
		name = e.Kind + " zone" + strconv.Itoa(on.zone)
	case "degrade":
		name = "degrade host" + strconv.Itoa(e.Host)
		attrs = []obs.Attr{obs.Float("factor", on.factor)}
	case "quarantine":
		name = "quarantine " + on.rep.app.cfg.Name + " r" + strconv.Itoa(on.rep.id)
		track, proc = t.devTrack[on.rep.dev.idx], t.hostProc[e.Host]
	case "scale-up", "scale-down", "scale-blocked", "scale-hold":
		d := on.decision
		name = fmt.Sprintf("%s %s %d->%d", d.Action, d.App, d.From, d.To)
		track = "autoscaler"
		attrs = []obs.Attr{obs.String("reason", d.Reason)}
	case "rollout", "canary", "canary-verdict", "promote", "wave", "wave-hold",
		"wave-resume", "rollback", "rollout-done":
		name, track = e.Kind, "rollout"
		attrs = []obs.Attr{obs.String("detail", e.Detail)}
	default:
		return
	}
	_, sp := t.Tracer.StartRoot(context.Background(), name, track, attrs...)
	sp.SetProc(proc)
	sp.End()
	var past string
	switch e.Kind {
	case "kill":
		past = "killed"
	case "revive":
		past = "revived"
	default:
		return
	}
	_, hsp := t.Tracer.StartRoot(context.Background(), past, "lifecycle")
	hsp.SetProc(t.hostProc[e.Host])
	hsp.End()
}

// telemetryTick is the window sampler, scheduled on the des loop every
// FleetMetrics window: it samples the simulator's counters and queue-depth
// gauges, integrates live replica capacity, and closes each app's window —
// the difference between this tick's counters and the last one's — into the
// deterministic time series the saturation analyzer reads. It only reads
// simulator state, so enabling it perturbs no arrival, dispatch or
// autoscaler decision.
func (c *Cluster) telemetryTick() {
	f := c.tel.Metrics
	now := c.loop.Now()
	f.mu.Lock()
	f.elapsed = now
	for i, a := range c.apps {
		am := f.apps[i]
		f.sample(a, am)
		am.replicaSeconds += float64(am.liveReplicas) * f.window
		cur := am.counts()
		am.windows = append(am.windows, Window{
			Start:     now - f.window,
			End:       now,
			Offered:   cur.offered - am.closed.offered,
			Completed: cur.completed - am.closed.completed,
			Shed:      cur.shed - am.closed.shed,
			Errors:    cur.errors - am.closed.errors,
			P99:       am.winLat.Quantile(0.99),
		})
		am.closed = cur
		am.total.Merge(&am.winLat)
		am.winLat = obs.Histogram{}
	}
	f.sampleFleet(c)
	f.mu.Unlock()
}

// sampleFleet counts the autoscaler decisions the event log gained since
// the last sample, and refreshes the per-zone up/dark gauges from the
// simulator's alive counts and the change-management gauges from the
// rollout controller. Caller holds f.mu on the simulator goroutine.
func (f *FleetMetrics) sampleFleet(c *Cluster) {
	for _, e := range c.events[f.logSeen:] {
		if d := e.decision; d != nil {
			f.apps[d.app].actions[d.act]++
		}
	}
	f.logSeen = len(c.events)
	for z := range f.zoneUp {
		f.zoneUp[z] = c.zoneAlive[z] > 0
	}
	f.rolloutStage = int(c.RolloutStage())
	f.rollbacks = c.Rollbacks()
	f.cordonedHosts = c.cordonedHosts()
}

// sample pulls one app's simulator-owned counters into the registry: the
// request-outcome totals (one AppCounters copy), per-host traffic (live
// replicas' counters on top of the retired replicas' folded ones), queue
// depth and live replicas.
// Caller holds f.mu and runs on the simulator goroutine, so reading sim
// state here is race-free.
func (f *FleetMetrics) sample(a *app, am *appMetrics) {
	am.AppCounters = a.AppCounters
	copy(am.perHost, am.retired)
	depth := 0
	for _, rep := range a.replicas {
		if rep == nil {
			continue
		}
		am.perHost[rep.dev.host.id].add(rep)
		depth += rep.lane.Len()
	}
	am.queueDepth = depth
	am.liveReplicas = a.liveReplicas()
}

// telemetryFlush runs once at the end of Run: a final cumulative sample
// so the registry's totals are exact at the horizon even when the last
// window tick fired earlier or interleaved with same-instant arrivals.
func (c *Cluster) telemetryFlush() {
	f := c.tel.Metrics
	f.mu.Lock()
	f.elapsed = c.loop.Now()
	for i, a := range c.apps {
		f.sample(a, f.apps[i])
	}
	f.sampleFleet(c)
	f.mu.Unlock()
}

// Window is one closed sampling window of an app's time series.
type Window struct {
	// Start and End bound the window in virtual seconds.
	Start, End float64
	// Offered, Completed, Shed, Errors count events inside the window
	// (sheds include both admission sheds and dispatch expiries).
	Offered, Completed, Shed, Errors uint64
	// P99 is the 99th-percentile served latency of the window, seconds.
	P99 float64
}

// cell is one app x host rollup.
type cell struct {
	// Routed counts admissions into this host's queues (re-routes count
	// again — it is traffic toward the host, not unique requests).
	Routed uint64
	// Completed counts requests served by this host.
	Completed uint64
	// Shed counts admission sheds plus dispatch expiries at this host.
	Shed uint64
}

// add accumulates one replica's cumulative counters into its host's cell.
func (cl *cell) add(rep *replica) {
	cl.Routed += rep.routed
	cl.Completed += rep.completed
	cl.Shed += rep.shed
}

// appMetrics is one app's fleet-level counters.
type appMetrics struct {
	name string
	// Sampled from the simulator (see sample); exact as of the last tick.
	AppCounters
	actions                  [numScaleActions]uint64 // autoscaler decisions, by scaleAction
	queueDepth, liveReplicas int
	// Pushed by onDispatch / onComplete.
	batches, batched uint64
	trig             [numTriggers]uint64
	replicaSeconds   float64
	busySeconds      float64

	// Latency decomposition of completed requests, seconds. total holds the
	// closed windows' end-to-end latencies, winLat the open window's.
	queueWait, fillWait, service, failoverDelay, total, winLat obs.Histogram

	// retired holds the per-host counters folded in from retired replicas;
	// sample() adds the live replicas' counters on top to make perHost.
	retired []cell
	perHost []cell

	// closed is the cumulative counts as of the last closed window; the
	// next window is the difference from them.
	closed  windowCounts
	windows []Window
}

// windowCounts is the cumulative form of a Window's four counts.
type windowCounts struct{ offered, completed, shed, errors uint64 }

// counts returns the sampled cumulative counters a window differences.
func (am *appMetrics) counts() windowCounts {
	return windowCounts{am.Offered, am.Completed, am.ShedQueue + am.Expired, am.Errors}
}

// totalLat is the cumulative end-to-end latency histogram including the
// still-open window (the closed windows were folded in at each tick).
// Returns a copy; the caller holds the registry lock.
func (am *appMetrics) totalLat() obs.Histogram {
	t := am.total
	t.Merge(&am.winLat)
	return t
}

// hostMetrics is one host's fleet-level counters.
type hostMetrics struct {
	busySeconds float64
}

// FleetMetrics is the cluster metrics registry: per-app x per-host
// rollups, latency-component histograms, and the windowed series behind
// the saturation report. All methods are safe for concurrent use — a
// scraper may call Prometheus from another goroutine while the
// simulator mutates the registry.
type FleetMetrics struct {
	mu             sync.Mutex
	window         float64
	sloTarget      float64
	elapsed        float64
	devicesPerHost int
	hosts          []*hostMetrics
	apps           []*appMetrics
	// Change-management gauges, sampled from the rollout controller.
	rolloutStage  int // RolloutStage numeric value
	rollbacks     int
	cordonedHosts int
	zoneUp        []bool // per failure domain: any host alive
	logSeen       int    // event-log entries already counted into actions
}

// DefaultWindowSeconds is the sampling window when NewFleetMetrics is
// given a w that is not a positive finite number.
const DefaultWindowSeconds = 0.05

// NewFleetMetrics builds a registry sampling on the given virtual-time
// window (DefaultWindowSeconds if w <= 0, NaN or ±Inf). The SLO target is
// 99% — the paper's applications bound the 99th percentile.
func NewFleetMetrics(windowSeconds float64) *FleetMetrics {
	if !(windowSeconds > 0 && windowSeconds <= math.MaxFloat64) {
		windowSeconds = DefaultWindowSeconds
	}
	return &FleetMetrics{window: windowSeconds, sloTarget: 0.99}
}

// register sizes the registry for the fleet. Called once from cluster.New.
func (f *FleetMetrics) register(hosts, devicesPerHost, zones int, appNames []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.devicesPerHost = devicesPerHost
	if zones < 1 {
		zones = 1
	}
	f.zoneUp = make([]bool, zones)
	for z := range f.zoneUp {
		f.zoneUp[z] = true
	}
	f.hosts = make([]*hostMetrics, hosts)
	for i := range f.hosts {
		f.hosts[i] = &hostMetrics{}
	}
	f.apps = make([]*appMetrics, len(appNames))
	for i, name := range appNames {
		f.apps[i] = &appMetrics{name: name, perHost: make([]cell, hosts), retired: make([]cell, hosts)}
	}
}

// utilization is the busy fraction of one host's device pool since t=0.
// Caller holds f.mu.
func (f *FleetMetrics) utilization(hm *hostMetrics) float64 {
	if f.elapsed <= 0 || f.devicesPerHost <= 0 {
		return 0
	}
	return hm.busySeconds / (f.elapsed * float64(f.devicesPerHost))
}

// Prometheus renders the exposition as a string. Families are
// deterministic for a given registry state: apps in config order, hosts in
// id order.
func (f *FleetMetrics) Prometheus() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return string(obs.Render(f, fleetFamilies))
}

// appRows is the row set of every per-app family.
func appRows(f *FleetMetrics) []*appMetrics { return f.apps }

// perCell collects a family with one sample per app x host rollup.
func perCell(v func(cl cell) uint64) func(*FleetMetrics, *obs.Emitter) {
	return func(f *FleetMetrics, e *obs.Emitter) {
		for _, am := range f.apps {
			for h, cl := range am.perHost {
				e.Uint(v(cl), am.name, strconv.Itoa(h))
			}
		}
	}
}

var (
	byApp     = []string{"app"}
	byAppHost = []string{"app", "host"}
	byHost    = []string{"host"}
)

// fleetFamilies is the fleet registry's exposition, one row per family.
// Collect runs with the registry lock held.
var fleetFamilies = []obs.Family[*FleetMetrics]{
	{Name: "tpucluster_virtual_seconds", Type: "gauge", Help: "Virtual time of the last sampler tick.", Collect: func(f *FleetMetrics, e *obs.Emitter) { e.Float(f.elapsed) }},
	{Name: "tpucluster_requests_offered_total", Type: "counter", Help: "Requests offered to each app's router.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.Offered, am.name) })},
	{Name: "tpucluster_requests_routed_total", Type: "counter", Help: "Requests admitted into a host's replica queues (re-routes count again).", Labels: byAppHost, Collect: perCell(func(cl cell) uint64 { return cl.Routed })},
	{Name: "tpucluster_requests_completed_total", Type: "counter", Help: "Requests served, by app and host.", Labels: byAppHost, Collect: perCell(func(cl cell) uint64 { return cl.Completed })},
	{Name: "tpucluster_requests_shed_total", Type: "counter", Help: "Requests shed (admission queue_full + dispatch deadline), by app and host.", Labels: byAppHost, Collect: perCell(func(cl cell) uint64 { return cl.Shed })},
	{Name: "tpucluster_failovers_total", Type: "counter", Help: "Requests re-routed after losing their replica.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.Failovers, am.name) })},
	{Name: "tpucluster_errors_total", Type: "counter", Help: "Client-visible failures (router miss or failover exhaustion).", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.Errors, am.name) })},
	{Name: "tpucluster_retries_total", Type: "counter", Help: "Granted retries: failover re-routes plus admission-shed retries within budget.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.Retries, am.name) })},
	{Name: "tpucluster_retry_budget_exhausted_total", Type: "counter", Help: "Retries refused because the app's token-bucket retry budget was empty.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.BudgetDenied, am.name) })},
	{Name: "tpucluster_autoscaler_actions_total", Type: "counter", Help: "Autoscaler decisions by action.", Labels: []string{"app", "action"}, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) {
		for act, n := range am.actions {
			e.Uint(n, am.name, scaleAction(act).String())
		}
	})},
	{Name: "tpucluster_dispatch_triggers_total", Type: "counter", Help: "Batch dispatches by what fired them.", Labels: []string{"app", "trigger"}, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) {
		for tr := trigger(0); tr < numTriggers; tr++ {
			e.Uint(am.trig[tr], am.name, tr.String())
		}
	})},
	{Name: "tpucluster_batch_size", Type: "summary", Help: "Requests per dispatched batch.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Summary(am.batched, am.batches, am.name) })},
	{Name: "tpucluster_queue_depth", Type: "gauge", Help: "Queued requests per app at the last sampler tick.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Int(int64(am.queueDepth), am.name) })},
	{Name: "tpucluster_replicas_live", Type: "gauge", Help: "Routable replicas per app at the last sampler tick.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Int(int64(am.liveReplicas), am.name) })},
	{Name: "tpucluster_device_busy_seconds_total", Type: "counter", Help: "Device execution-engine busy time per host.", Labels: byHost, Collect: func(f *FleetMetrics, e *obs.Emitter) {
		for h, hm := range f.hosts {
			e.Float(hm.busySeconds, strconv.Itoa(h))
		}
	}},
	{Name: "tpucluster_device_utilization", Type: "gauge", Help: "Busy fraction of each host's device pool since t=0.", Labels: byHost, Collect: func(f *FleetMetrics, e *obs.Emitter) {
		for h, hm := range f.hosts {
			e.Float(f.utilization(hm), strconv.Itoa(h))
		}
	}},
	{Name: "tpucluster_zone_state", Type: "gauge", Help: "Failure-domain state at the last sampler tick: 1 when any host in the zone is alive, 0 when the zone is dark.", Labels: []string{"zone"}, Collect: func(f *FleetMetrics, e *obs.Emitter) {
		for z, up := range f.zoneUp {
			v := uint64(0)
			if up {
				v = 1
			}
			e.Uint(v, strconv.Itoa(z))
		}
	}},
	{Name: "tpucluster_rollout_state", Type: "gauge", Help: "Rollout controller stage at the last sampler tick: 0 idle, 1 canary, 2 wave, 3 hold, 4 done, 5 rolled-back.", Collect: func(f *FleetMetrics, e *obs.Emitter) { e.Int(int64(f.rolloutStage)) }},
	{Name: "tpucluster_rollbacks_total", Type: "counter", Help: "Automatic rollbacks executed by the rollout controller.", Collect: func(f *FleetMetrics, e *obs.Emitter) { e.Int(int64(f.rollbacks)) }},
	{Name: "tpucluster_cordoned_hosts", Type: "gauge", Help: "Hosts cordoned (serving but excluded from placement) at the last sampler tick.", Collect: func(f *FleetMetrics, e *obs.Emitter) { e.Int(int64(f.cordonedHosts)) }},
	{Name: "tpucluster_request_component_seconds", Type: "histogram", Help: "Served request latency decomposed into queue, fill, service and failover components.", Labels: []string{"app", "component"}, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) {
		e.Histogram(&am.queueWait, am.name, "queue")
		e.Histogram(&am.fillWait, am.name, "fill")
		e.Histogram(&am.service, am.name, "service")
		e.Histogram(&am.failoverDelay, am.name, "failover")
	})},
	{Name: "tpucluster_request_latency_seconds", Type: "histogram", Help: "End-to-end served request latency (arrival to completion).", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) {
		tot := am.totalLat()
		e.Histogram(&tot, am.name)
	})},
}
