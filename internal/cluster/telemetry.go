// Fleet telemetry: the cluster simulator's observability seam. A Cluster
// built with Config.Telemetry gains three things, all stamped in *virtual*
// time on the discrete-event clock:
//
//   - Spans: every dispatched batch is a span on its device's track inside
//     its host's Chrome-trace process group, sampled completed requests are
//     spans on the app's track, and host kills, quarantines and autoscaler
//     decisions are instant spans on cluster-level tracks. The obs.Tracer's
//     clock is rerouted through the des loop, so an exported trace shows
//     the whole ramp — kill, failover storm, scale-ups — on one timeline
//     Perfetto can load.
//   - FleetMetrics: a mutex-protected registry of per-app x per-host
//     rollups (routed/served/shed), latency-component histograms
//     (obs.Histogram, the one bucket geometry), dispatch-trigger counters,
//     device busy-time integration, and a windowed time series the
//     saturation analyzer and SLO burn-rate computation read. It renders
//     as text and, through the fleetFamilies table and obs.Render, as
//     Prometheus exposition, so a live scrape of a running simulation
//     works exactly like scraping the wall-clock server.
//   - Latency attribution: each completed request's latency decomposes
//     into failover delay (time lost re-routing after a host death or
//     drain), fill wait or queue wait (the time between final enqueue and
//     dispatch, attributed by what triggered the dispatch), and service
//     time.
//
// Telemetry is strictly opt-in and passive: with Config.Telemetry nil the
// simulator schedules no extra events, allocates nothing, and replays
// byte-identically to a build without this file. Every hook is nil-safe on
// the *Telemetry receiver, mirroring the obs package's disabled fast path.
package cluster

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
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
		c.loop.Every(t.Metrics.window, c.telemetryTick)
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
// Every hook is nil-safe and does nothing when the relevant sink is nil,
// so instrumented call sites need no guards and the telemetry-off path
// stays allocation-free (pinned by TestTelemetryDisabledAllocs).

// Arrivals and admissions have no hooks at all: the simulator already
// counts them (app.offered, replica.routed), so the sampler tick reads
// those sim-owned counters instead of paying a mutex round trip on every
// request — the classic pull-at-interval design that keeps the hot path's
// telemetry cost at zero for the two highest-frequency events.

// onRetire folds a departing replica's cumulative routed count into the
// registry before placement forgets the replica, so tick-time sampling
// (which sums over live replicas) stays exact across scale-downs.
func (t *Telemetry) onRetire(rep *replica) {
	if t == nil || t.Metrics == nil {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	f.apps[rep.app.idx].baseRouted[rep.dev.host.id] += rep.routed
	f.mu.Unlock()
}

// onShedQueue records an admission shed (queue full) at a replica.
func (t *Telemetry) onShedQueue(rep *replica) {
	if t == nil || t.Metrics == nil {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	am := f.apps[rep.app.idx]
	am.shedQueue++
	am.win.shed++
	am.perHost[rep.dev.host.id].Shed++
	f.mu.Unlock()
}

// onExpired records n requests shed at dispatch (deadline unmeetable).
func (t *Telemetry) onExpired(rep *replica, n int) {
	if t == nil || t.Metrics == nil || n == 0 {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	am := f.apps[rep.app.idx]
	am.expired += uint64(n)
	am.win.shed += uint64(n)
	am.perHost[rep.dev.host.id].Shed += uint64(n)
	f.mu.Unlock()
}

// onFailover records one failover re-route.
func (t *Telemetry) onFailover(a *app) {
	if t == nil || t.Metrics == nil {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	f.apps[a.idx].failovers++
	f.mu.Unlock()
}

// onRetry records one granted retry (failover re-route or admission-shed
// retry) against the app's retries_total counter.
func (t *Telemetry) onRetry(a *app) {
	if t == nil || t.Metrics == nil {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	f.apps[a.idx].retries++
	f.mu.Unlock()
}

// onError records one client-visible error (router miss or failover
// exhaustion).
func (t *Telemetry) onError(a *app) {
	if t == nil || t.Metrics == nil {
		return
	}
	f := t.Metrics
	f.mu.Lock()
	am := f.apps[a.idx]
	am.errors++
	am.win.errors++
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

// onComplete retires a served batch: component histograms, per-host
// rollups, busy-time integration, the batch span, and sampled request
// spans. Called before the replica's dispatch state is reset.
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
		am.completed += uint64(len(batch))
		am.win.completed += uint64(len(batch))
		am.perHost[hostID].Completed += uint64(len(batch))
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
			am.win.lat.Observe(done - r.arrival)
		}
		f.mu.Unlock()
	}
	if t.Tracer != nil && rep.span != nil {
		// A sampled batch brings its member requests along: each gets a
		// pre-timed span on the app's track spanning arrival to completion,
		// parented under the batch span.
		for _, r := range batch {
			t.Tracer.Emit(obs.SpanData{
				Trace:  rep.span.TraceID(),
				ID:     t.Tracer.NextID(),
				Parent: rep.span.ID(),
				Name:   "request",
				Track:  a.cfg.Name,
				Proc:   "apps",
				Start:  vtime(r.arrival),
				End:    vtime(done),
				Attrs: []obs.Attr{
					obs.Int("host", hostID),
					obs.Int("replica", rep.id),
					obs.Int("attempts", r.attempts),
					obs.Float("wait_ms", (rep.dispatchAt-r.enq)*1e3),
					obs.Float("service_ms", svcSeconds*1e3),
				},
			})
		}
		rep.span.SetAttr(obs.Int("served", len(batch)))
		rep.span.End()
		rep.span = nil
	}
}

// onBatchKilled closes a serving replica's open batch span when its host
// dies under it; the batch's requests fail over and complete elsewhere.
func (t *Telemetry) onBatchKilled(rep *replica) {
	if t == nil || t.Tracer == nil || rep.span == nil {
		return
	}
	rep.span.SetAttr(obs.String("outcome", "killed"))
	rep.span.End()
	rep.span = nil
}

// instant marks a fleet lifecycle event — kind is the event-log kind
// logged on the line above each call ("kill", "zone-down", "cordon", ...),
// noun and id name what it happened to ("host" 3, "zone" 0) — as an instant
// span on the cluster's hosts track. A kill or revive also lands on the
// host's own lifecycle track.
func (t *Telemetry) instant(kind, noun string, id int) {
	if t == nil || t.Tracer == nil {
		return
	}
	_, sp := t.Tracer.StartRoot(context.Background(), kind+" "+noun+strconv.Itoa(id), "hosts")
	sp.SetProc("cluster")
	sp.End()
	var past string
	switch kind {
	case "kill":
		past = "killed"
	case "revive":
		past = "revived"
	default:
		return
	}
	_, hsp := t.Tracer.StartRoot(context.Background(), past, "lifecycle")
	hsp.SetProc("host" + strconv.Itoa(id))
	hsp.End()
}

// onDegrade marks a host service-time degradation (or restore) as an
// instant span.
func (t *Telemetry) onDegrade(hostID int, factor float64) {
	if t == nil || t.Tracer == nil {
		return
	}
	_, sp := t.Tracer.StartRoot(context.Background(), "degrade host"+strconv.Itoa(hostID), "hosts",
		obs.Float("factor", factor))
	sp.SetProc("cluster")
	sp.End()
}

// onRolloutEvent marks a rollout controller transition (canary verdicts,
// waves, promotions, rollbacks) as an instant span on its own track.
func (t *Telemetry) onRolloutEvent(kind, detail string) {
	if t == nil || t.Tracer == nil {
		return
	}
	_, sp := t.Tracer.StartRoot(context.Background(), kind, "rollout", obs.String("detail", detail))
	sp.SetProc("cluster")
	sp.End()
}

// onQuarantine marks a replica quarantine as an instant span on its
// device's track.
func (t *Telemetry) onQuarantine(rep *replica) {
	if t == nil || t.Tracer == nil {
		return
	}
	_, sp := t.Tracer.StartRoot(context.Background(),
		"quarantine "+rep.app.cfg.Name+" r"+strconv.Itoa(rep.id),
		"dev"+strconv.Itoa(rep.dev.idx))
	sp.SetProc("host" + strconv.Itoa(rep.dev.host.id))
	sp.End()
}

// onDecision records an autoscaler action: a counter by action and an
// instant span on the cluster autoscaler track.
func (t *Telemetry) onDecision(a *app, d Decision) {
	if t == nil {
		return
	}
	if f := t.Metrics; f != nil {
		f.mu.Lock()
		am := f.apps[a.idx]
		switch d.Action {
		case "scale-up":
			am.scaleUps++
		case "scale-down":
			am.scaleDowns++
		case "scale-blocked":
			am.scaleBlocked++
		case "scale-hold":
			am.scaleHolds++
		}
		f.mu.Unlock()
	}
	if t.Tracer != nil {
		_, sp := t.Tracer.StartRoot(context.Background(),
			fmt.Sprintf("%s %s %d->%d", d.Action, d.App, d.From, d.To), "autoscaler",
			obs.String("reason", d.Reason))
		sp.SetProc("cluster")
		sp.End()
	}
}

// telemetryTick is the window sampler, scheduled on the des loop every
// FleetMetrics window: it samples queue-depth gauges, integrates live
// replica capacity, and rolls each app's window accumulator into the
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
		live := a.liveReplicas()
		am.liveReplicas = live
		am.replicaSeconds += float64(live) * f.window
		am.windows = append(am.windows, Window{
			Start:     now - f.window,
			End:       now,
			Offered:   am.offered - am.lastOffered,
			Completed: am.win.completed,
			Shed:      am.win.shed,
			Errors:    am.win.errors,
			P99:       am.win.lat.Quantile(0.99),
			Replicas:  live,
		})
		am.lastOffered = am.offered
		am.total.Merge(&am.win.lat)
		am.win = winAccum{}
	}
	f.sampleZones(c)
	f.sampleRollout(c)
	f.mu.Unlock()
}

// sampleZones refreshes the per-zone up/dark gauges from the simulator's
// alive counts. Caller holds f.mu on the simulator goroutine.
func (f *FleetMetrics) sampleZones(c *Cluster) {
	for z := range f.zoneUp {
		f.zoneUp[z] = c.zoneAlive[z] > 0
	}
}

// sampleRollout refreshes the change-management gauges from the rollout
// controller. Caller holds f.mu on the simulator goroutine.
func (f *FleetMetrics) sampleRollout(c *Cluster) {
	f.rolloutStage = int(c.RolloutStage())
	f.rollbacks = c.Rollbacks()
	f.cordonedHosts = c.cordonedHosts()
}

// sample pulls one app's simulator-owned counters into the registry:
// total arrivals, per-host routed traffic (retired replicas' counts live
// in baseRouted), and queue depth. Caller holds f.mu and runs on the
// simulator goroutine, so reading sim state here is race-free.
func (f *FleetMetrics) sample(a *app, am *appMetrics) {
	am.offered = a.offered
	am.budgetDenied = a.budgetDenied
	for h := range am.perHost {
		am.perHost[h].Routed = am.baseRouted[h]
	}
	depth := 0
	for _, rep := range a.replicas {
		am.perHost[rep.dev.host.id].Routed += rep.routed
		depth += rep.lane.Len()
	}
	am.queueDepth = depth
}

// telemetryFlush runs once at the end of Run: a final cumulative sample
// so the registry's totals are exact at the horizon even when the last
// window tick fired earlier or interleaved with same-instant arrivals.
func (c *Cluster) telemetryFlush() {
	f := c.tel.Metrics
	f.mu.Lock()
	f.elapsed = c.loop.Now()
	for i, a := range c.apps {
		am := f.apps[i]
		f.sample(a, am)
		am.liveReplicas = a.liveReplicas()
	}
	f.sampleZones(c)
	f.sampleRollout(c)
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
	// Replicas is the live replica count at window close.
	Replicas int
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

// winAccum accumulates the open window (arrivals are sampled from the
// simulator's own counter at tick time, not accumulated here).
type winAccum struct {
	completed, shed, errors uint64
	lat                     obs.Histogram
}

// appMetrics is one app's fleet-level counters.
type appMetrics struct {
	name                                           string
	offered, lastOffered, completed                uint64
	shedQueue, expired                             uint64
	failovers, errors                              uint64
	retries, budgetDenied                          uint64
	scaleUps, scaleDowns, scaleBlocked, scaleHolds uint64
	batches, batched                               uint64
	trig                                           [numTriggers]uint64
	queueDepth, liveReplicas                       int
	replicaSeconds                                 float64
	busySeconds                                    float64

	// Latency decomposition of completed requests, seconds.
	queueWait, fillWait, service, failoverDelay, total obs.Histogram

	// baseRouted holds per-host routed counts folded in from retired
	// replicas; sample() adds the live replicas' counters on top.
	baseRouted []uint64

	perHost []cell
	win     winAccum
	windows []Window
}

// totalLat is the cumulative end-to-end latency histogram including the
// still-open window (the closed windows were folded in at each tick).
// Returns a copy; the caller holds the registry lock.
func (am *appMetrics) totalLat() obs.Histogram {
	t := am.total
	t.Merge(&am.win.lat)
	return t
}

// hostMetrics is one host's fleet-level counters.
type hostMetrics struct {
	busySeconds float64
}

// FleetMetrics is the cluster metrics registry: per-app x per-host
// rollups, latency-component histograms, and the windowed series behind
// the saturation report. All methods are safe for concurrent use — a
// scraper may call Text, WritePrometheus or Windows from another goroutine
// while the simulator mutates the registry.
type FleetMetrics struct {
	mu             sync.Mutex
	window         float64
	sloTarget      float64
	elapsed        float64
	devicesPerHost int
	hosts          []*hostMetrics
	apps           []*appMetrics
	byName         map[string]*appMetrics
	// Change-management gauges, sampled from the rollout controller.
	rolloutStage  int // RolloutStage numeric value
	rollbacks     int
	cordonedHosts int
	zoneUp        []bool // per failure domain: any host alive
}

// DefaultWindowSeconds is the sampling window when NewFleetMetrics is
// given w <= 0.
const DefaultWindowSeconds = 0.05

// NewFleetMetrics builds a registry sampling on the given virtual-time
// window (DefaultWindowSeconds if w <= 0). The SLO target is
// 99% — the paper's applications bound the 99th percentile.
func NewFleetMetrics(windowSeconds float64) *FleetMetrics {
	if windowSeconds <= 0 {
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
	f.byName = make(map[string]*appMetrics, len(appNames))
	for i, name := range appNames {
		am := &appMetrics{name: name, perHost: make([]cell, hosts), baseRouted: make([]uint64, hosts)}
		f.apps[i] = am
		f.byName[name] = am
	}
}

// Windows returns a copy of one app's closed-window series.
func (f *FleetMetrics) Windows(app string) []Window {
	f.mu.Lock()
	defer f.mu.Unlock()
	am := f.byName[app]
	if am == nil {
		return nil
	}
	out := make([]Window, len(am.windows))
	copy(out, am.windows)
	return out
}

// Text renders the registry as aligned tables: per-app totals and
// latency components, the app x host rollup, and per-host device
// utilization.
func (f *FleetMetrics) Text() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "fleet metrics (virtual time %.3fs, window %.0fms, slo target %.2f%%)\n",
		f.elapsed, f.window*1e3, f.sloTarget*100)
	fmt.Fprintf(&b, "%-6s %4s %8s %9s %6s %7s %8s %5s %7s %9s %5s %11s\n",
		"app", "repl", "offered", "completed", "shedQ", "expired", "failover", "errs", "batches", "meanbatch", "queue", "up/down/blk")
	for _, am := range f.apps {
		meanBatch := 0.0
		if am.batches > 0 {
			meanBatch = float64(am.batched) / float64(am.batches)
		}
		fmt.Fprintf(&b, "%-6s %4d %8d %9d %6d %7d %8d %5d %7d %9.1f %5d %5d/%d/%d\n",
			am.name, am.liveReplicas, am.offered, am.completed, am.shedQueue, am.expired,
			am.failovers, am.errors, am.batches, meanBatch, am.queueDepth,
			am.scaleUps, am.scaleDowns, am.scaleBlocked)
	}
	b.WriteString("\nlatency components ms (p50/p99):\n")
	fmt.Fprintf(&b, "%-6s %13s %13s %13s %13s %13s\n", "app", "queue", "fill", "service", "failover", "total")
	ms := func(h *obs.Histogram, q float64) float64 { return h.Quantile(q) * 1e3 }
	for _, am := range f.apps {
		tot := am.totalLat()
		fmt.Fprintf(&b, "%-6s %6.3f/%6.3f %6.3f/%6.3f %6.3f/%6.3f %6.3f/%6.3f %6.3f/%6.3f\n",
			am.name,
			ms(&am.queueWait, 0.50), ms(&am.queueWait, 0.99),
			ms(&am.fillWait, 0.50), ms(&am.fillWait, 0.99),
			ms(&am.service, 0.50), ms(&am.service, 0.99),
			ms(&am.failoverDelay, 0.50), ms(&am.failoverDelay, 0.99),
			ms(&tot, 0.50), ms(&tot, 0.99))
	}
	b.WriteString("\napp x host routed/completed/shed:\n")
	for _, am := range f.apps {
		fmt.Fprintf(&b, "%-6s", am.name)
		for h, cl := range am.perHost {
			if cl.Routed == 0 && cl.Shed == 0 {
				continue
			}
			fmt.Fprintf(&b, "  h%d:%d/%d/%d", h, cl.Routed, cl.Completed, cl.Shed)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nhost device utilization:\n")
	for h, hm := range f.hosts {
		fmt.Fprintf(&b, "  host%-3d busy %8.3fs  util %6.2f%%\n", h, hm.busySeconds, f.utilization(hm)*100)
	}
	return b.String()
}

// utilization is the busy fraction of one host's device pool since t=0.
// Caller holds f.mu.
func (f *FleetMetrics) utilization(hm *hostMetrics) float64 {
	if f.elapsed <= 0 || f.devicesPerHost <= 0 {
		return 0
	}
	return hm.busySeconds / (f.elapsed * float64(f.devicesPerHost))
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, mirroring the serve registry's family shapes with a
// tpucluster_ prefix. A failed write is the scraper's to notice: an
// exposition has no error channel.
func (f *FleetMetrics) WritePrometheus(w io.Writer) { _, _ = io.WriteString(w, f.Prometheus()) }

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
	{Name: "tpucluster_requests_offered_total", Type: "counter", Help: "Requests offered to each app's router.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.offered, am.name) })},
	{Name: "tpucluster_requests_routed_total", Type: "counter", Help: "Requests admitted into a host's replica queues (re-routes count again).", Labels: byAppHost, Collect: perCell(func(cl cell) uint64 { return cl.Routed })},
	{Name: "tpucluster_requests_completed_total", Type: "counter", Help: "Requests served, by app and host.", Labels: byAppHost, Collect: perCell(func(cl cell) uint64 { return cl.Completed })},
	{Name: "tpucluster_requests_shed_total", Type: "counter", Help: "Requests shed (admission queue_full + dispatch deadline), by app and host.", Labels: byAppHost, Collect: perCell(func(cl cell) uint64 { return cl.Shed })},
	{Name: "tpucluster_failovers_total", Type: "counter", Help: "Requests re-routed after losing their replica.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.failovers, am.name) })},
	{Name: "tpucluster_errors_total", Type: "counter", Help: "Client-visible failures (router miss or failover exhaustion).", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.errors, am.name) })},
	{Name: "tpucluster_retries_total", Type: "counter", Help: "Granted retries: failover re-routes plus admission-shed retries within budget.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.retries, am.name) })},
	{Name: "tpucluster_retry_budget_exhausted_total", Type: "counter", Help: "Retries refused because the app's token-bucket retry budget was empty.", Labels: byApp, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) { e.Uint(am.budgetDenied, am.name) })},
	{Name: "tpucluster_autoscaler_actions_total", Type: "counter", Help: "Autoscaler decisions by action.", Labels: []string{"app", "action"}, Collect: obs.Each(appRows, func(e *obs.Emitter, am *appMetrics) {
		e.Uint(am.scaleUps, am.name, "scale-up")
		e.Uint(am.scaleDowns, am.name, "scale-down")
		e.Uint(am.scaleBlocked, am.name, "scale-blocked")
		e.Uint(am.scaleHolds, am.name, "scale-hold")
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
