// The saturation analyzer: a first-class report answering the capacity
// question the cluster experiment exists for — at what offered rate does
// each app stop keeping up, and *why*. Section 2 of the paper fixes the
// response-time bound ("applications ... need responses in milliseconds")
// and Table 1's applications differ wildly in how they hit it: the MLPs
// batch hundreds deep, while CNN1's only deadline-safe operating point
// leaves microseconds of fill window, so its batches dispatch nearly
// empty and its capacity cliff has a different shape entirely.
//
// The analyzer reads the FleetMetrics windowed series and cumulative
// counters and produces, per app:
//
//   - Knee detection over the rate ramp: the first debounced window where
//     achieved throughput diverges from offered load, sheds cross 1% of
//     offered, or the served p99 crosses the SLA.
//   - Bottleneck attribution: fill-window-limited (near-empty batches,
//     dispatches dominated by the fill timer), device-limited (execution
//     engines saturated), queue-limited (admission sheds dominate), or
//     replica-count-limited (the autoscaler hit its ceiling or placement
//     failed).
//   - Multi-window SLO error-budget burn rates: how fast the app is
//     spending its error budget over a short (one window) and long (five
//     window) horizon, the standard fast/slow-burn alerting pair.
//
// Everything is a pure function of (config, seed, virtual time): Render
// output is pinned by golden files and byte-identical across same-seed
// runs.
package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"tpusim/internal/obs"
)

// Knee-detection tuning: a window needs enough arrivals for its ratios to
// mean anything, and a signal must persist for two consecutive windows so
// one noisy window cannot fake a knee.
const (
	kneeMinWindowArrivals = 10
	kneeDebounceWindows   = 2
	kneeShedOnsetFrac     = 0.01
	kneeDivergenceFrac    = 0.90
	// Long-horizon burn averages this many trailing windows.
	sloLongWindows = 5
	// Device-limited threshold on busy fraction of the app's replicas.
	deviceLimitedUtil = 0.85
)

// ComponentQuantiles summarizes one latency component in milliseconds.
type ComponentQuantiles struct {
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	Count  uint64  `json:"count"`
}

func quantiles(h *obs.Histogram) ComponentQuantiles {
	return ComponentQuantiles{
		P50Ms:  h.Quantile(0.50) * 1e3,
		P99Ms:  h.Quantile(0.99) * 1e3,
		MeanMs: h.Mean() * 1e3,
		Count:  h.Count(),
	}
}

// Components is the per-request latency decomposition: where a completed
// request's time went between arrival and completion.
type Components struct {
	// Queue is time spent waiting for the device while a full-enough batch
	// was ready (dispatch fired on device-free).
	Queue ComponentQuantiles `json:"queue"`
	// Fill is time spent waiting for the batch to assemble (dispatch fired
	// on batch-full or the fill timer).
	Fill ComponentQuantiles `json:"fill"`
	// Service is device execution time.
	Service ComponentQuantiles `json:"service"`
	// Failover is time lost between first arrival and the final successful
	// enqueue (host-death re-routes and drain re-routes; zero-delay
	// re-routes are not observed).
	Failover ComponentQuantiles `json:"failover"`
	// Total is end-to-end arrival-to-completion latency.
	Total ComponentQuantiles `json:"total"`
}

// SLOBurn is an app's error-budget accounting against the SLO target.
type SLOBurn struct {
	// Target is the availability target (e.g. 0.99: 99% of offered
	// requests settle successfully).
	Target float64 `json:"target"`
	// BadFrac is the cumulative bad fraction: (sheds + errors) / offered.
	BadFrac float64 `json:"bad_frac"`
	// BudgetSpent is BadFrac over the error budget (1 - Target); above 1.0
	// the app has blown its budget for the run.
	BudgetSpent float64 `json:"budget_spent"`
	// ShortBurn and LongBurn are burn rates — windowed bad fraction over
	// the budget — for the last window and the mean of the last
	// sloLongWindows windows. A burn rate of 1.0 spends exactly the budget;
	// the classic paging pair is a high short burn confirmed by the long.
	ShortBurn float64 `json:"short_burn"`
	LongBurn  float64 `json:"long_burn"`
	// ShortWindowSeconds and LongWindowSeconds name the horizons.
	ShortWindowSeconds float64 `json:"short_window_seconds"`
	LongWindowSeconds  float64 `json:"long_window_seconds"`
}

// IncidentImpact attributes an app's saturated windows that overlap an
// incident (dead or partitioned hosts) to the incident, keeping them out
// of capacity-knee detection: a fleet losing a quarter of its hosts is an
// outage, not a capacity cliff.
type IncidentImpact struct {
	// Windows counts sampling windows overlapping any incident interval.
	Windows int `json:"windows"`
	// Saturated counts those windows showing a saturation signal.
	Saturated int `json:"saturated"`
}

// Knee is where (and how) an app's capacity gave out on the ramp.
type Knee struct {
	// Detected reports whether any saturation signal fired.
	Detected bool `json:"detected"`
	// Rate is the offered rate (req/s) over the first saturated window.
	Rate float64 `json:"rate"`
	// Time is the virtual end time of that window.
	Time float64 `json:"time"`
	// Signal names what fired: "shed-onset", "throughput-divergence" or
	// "p99-sla".
	Signal string `json:"signal,omitempty"`
}

// TriggerMix is the dispatch-trigger distribution.
type TriggerMix struct {
	BatchFull  uint64 `json:"batch_full"`
	FillTimer  uint64 `json:"fill_timer"`
	DeviceFree uint64 `json:"device_free"`
}

// AppSaturation is one app's saturation analysis.
type AppSaturation struct {
	Name string `json:"name"`
	// SafeBatch and MeanBatch frame the batching behavior; a mean far
	// under the safe batch means the fill window, not the device, sets
	// throughput.
	SafeBatch int     `json:"safe_batch"`
	MeanBatch float64 `json:"mean_batch"`
	// FillWindowMs is the resolved head-of-line fill wait.
	FillWindowMs float64 `json:"fill_window_ms"`
	// Replicas / MaxReplicas are live-at-end and the scaling ceiling.
	Replicas    int `json:"replicas"`
	MaxReplicas int `json:"max_replicas"`
	// Cumulative outcome counters.
	Offered   uint64 `json:"offered"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Errors    uint64 `json:"errors"`
	// Utilization is device busy time over live replica-time: how hard the
	// app's replicas worked.
	Utilization float64    `json:"utilization"`
	Triggers    TriggerMix `json:"triggers"`

	Knee Knee `json:"knee"`
	// Incident is set when the run had incidents: how many of the app's
	// windows fell inside one and how many of those saturated.
	Incident *IncidentImpact `json:"incident_impact,omitempty"`
	// Bottleneck is the analyzer's attribution: "fill-window-limited",
	// "device-limited", "queue-limited", "replica-count-limited" or
	// "headroom". Why is the one-line evidence.
	Bottleneck string `json:"bottleneck"`
	Why        string `json:"why"`

	Components Components `json:"components"`
	SLO        SLOBurn    `json:"slo"`
}

// HostUtilization is one host's device-pool busy fraction.
type HostUtilization struct {
	Host        int     `json:"host"`
	Alive       bool    `json:"alive"`
	BusySeconds float64 `json:"busy_seconds"`
	Utilization float64 `json:"utilization"`
}

// SaturationReport is the fleet-level saturation analysis. Build one with
// Cluster.SaturationReport; Render and JSON output are deterministic for
// a given (config, seed, virtual time).
type SaturationReport struct {
	Hosts          int     `json:"hosts"`
	DevicesPerHost int     `json:"devices_per_host"`
	Router         string  `json:"router"`
	Seed           int64   `json:"seed"`
	VirtualTime    float64 `json:"virtual_time"`
	WindowSeconds  float64 `json:"window_seconds"`
	SLOTarget      float64 `json:"slo_target"`

	Apps      []AppSaturation   `json:"apps"`
	HostUtils []HostUtilization `json:"host_utilization"`
	// Incidents are the run's dead/partitioned-host intervals; windows
	// inside them are attributed to the incident, not to a capacity knee.
	Incidents []Incident `json:"incidents,omitempty"`
	// Rollout is the change-management state, present only when a rollout
	// was applied (so rollout-free reports stay byte-identical).
	Rollout *RolloutStatus `json:"rollout,omitempty"`
}

// RolloutStatus summarizes the rollout controller for the report.
type RolloutStatus struct {
	Stage         string `json:"stage"`
	Wave          int    `json:"wave"`
	Rollbacks     int    `json:"rollbacks"`
	CordonedHosts int    `json:"cordoned_hosts"`
}

// SaturationReport analyzes the run so far. It needs the FleetMetrics
// registry: build the cluster with Config.Telemetry{Metrics: ...}.
func (c *Cluster) SaturationReport() (*SaturationReport, error) {
	if c.tel == nil || c.tel.Metrics == nil {
		return nil, fmt.Errorf("cluster: saturation analysis needs Config.Telemetry.Metrics (see NewFleetMetrics)")
	}
	f := c.tel.Metrics
	f.mu.Lock()
	defer f.mu.Unlock()

	r := &SaturationReport{
		Hosts:          c.cfg.Hosts,
		DevicesPerHost: c.cfg.DevicesPerHost,
		Router:         c.cfg.Router.String(),
		Seed:           c.cfg.Seed,
		VirtualTime:    c.loop.Now(),
		WindowSeconds:  f.window,
		SLOTarget:      f.sloTarget,
	}
	r.Incidents = c.Incidents()
	if ro := c.ro; ro != nil {
		r.Rollout = &RolloutStatus{
			Stage:         ro.stage.String(),
			Wave:          ro.wave,
			Rollbacks:     ro.rollbacks,
			CordonedHosts: c.cordonedHosts(),
		}
	}
	for i, a := range c.apps {
		r.Apps = append(r.Apps, analyzeApp(a, f.apps[i], f.window, f.sloTarget, r.Incidents))
	}
	sort.Slice(r.Apps, func(i, j int) bool { return r.Apps[i].Name < r.Apps[j].Name })
	for h, hm := range f.hosts {
		r.HostUtils = append(r.HostUtils, HostUtilization{
			Host: h, Alive: c.hosts[h].alive, BusySeconds: hm.busySeconds, Utilization: f.utilization(hm),
		})
	}
	return r, nil
}

// analyzeApp runs knee detection, bottleneck attribution and SLO burn for
// one app. Caller holds the registry lock.
func analyzeApp(a *app, am *appMetrics, window, sloTarget float64, incidents []Incident) AppSaturation {
	tot := am.totalLat()
	s := AppSaturation{
		Name:         a.cfg.Name,
		SafeBatch:    a.plan.SafeBatch,
		FillWindowMs: a.plan.MaxWaitSeconds * 1e3,
		Replicas:     am.liveReplicas,
		MaxReplicas:  a.cfg.MaxReplicas,
		Offered:      am.Offered,
		Completed:    am.Completed,
		Shed:         am.ShedQueue + am.Expired,
		Errors:       am.Errors,
		Triggers: TriggerMix{
			BatchFull:  am.trig[trigBatchFull],
			FillTimer:  am.trig[trigFillWait],
			DeviceFree: am.trig[trigDeviceFree],
		},
		Components: Components{
			Queue:    quantiles(&am.queueWait),
			Fill:     quantiles(&am.fillWait),
			Service:  quantiles(&am.service),
			Failover: quantiles(&am.failoverDelay),
			Total:    quantiles(&tot),
		},
	}
	if am.batches > 0 {
		s.MeanBatch = float64(am.batched) / float64(am.batches)
	}
	if am.replicaSeconds > 0 {
		s.Utilization = am.busySeconds / am.replicaSeconds
	}
	s.Knee = detectKnee(am.windows, window, a.plan.SLASeconds, incidents)
	if len(incidents) > 0 {
		impact := &IncidentImpact{}
		for _, w := range am.windows {
			if !inIncident(w, incidents) {
				continue
			}
			impact.Windows++
			if windowSignal(w, a.plan.SLASeconds) != "" {
				impact.Saturated++
			}
		}
		s.Incident = impact
	}
	s.Bottleneck, s.Why = classifyBottleneck(a, am, s)
	s.SLO = burnRates(am, window, sloTarget)
	return s
}

// windowSignal names the saturation signal a window shows, or "".
func windowSignal(w Window, sla float64) string {
	if w.Offered < kneeMinWindowArrivals {
		return ""
	}
	if float64(w.Shed) > kneeShedOnsetFrac*float64(w.Offered) {
		return "shed-onset"
	}
	if float64(w.Completed) < kneeDivergenceFrac*float64(w.Offered) {
		return "throughput-divergence"
	}
	if w.P99 > sla {
		return "p99-sla"
	}
	return ""
}

// inIncident reports whether a window overlaps any incident interval (an
// open incident extends to the horizon).
func inIncident(w Window, incidents []Incident) bool {
	for _, in := range incidents {
		end := in.End
		if in.Open {
			end = math.Inf(1)
		}
		if w.End > in.Start && w.Start < end {
			return true
		}
	}
	return false
}

// detectKnee scans the windowed series for the first run of
// kneeDebounceWindows consecutive saturated windows and reports the first
// window of that run. Windows overlapping an incident are excluded and
// reset the run: saturation while a failure domain is down is the
// incident's signature, not the capacity knee the ramp is probing for.
func detectKnee(windows []Window, window, sla float64, incidents []Incident) Knee {
	run := 0
	for i, w := range windows {
		if inIncident(w, incidents) || windowSignal(w, sla) == "" {
			run = 0
			continue
		}
		run++
		if run >= kneeDebounceWindows {
			first := windows[i-run+1]
			return Knee{
				Detected: true,
				Rate:     float64(first.Offered) / window,
				Time:     first.End,
				Signal:   windowSignal(first, sla),
			}
		}
	}
	return Knee{}
}

// classifyBottleneck attributes what limits the app first as load grows,
// in priority order. Fill-window limitation is checked first: an app
// dispatching near-empty batches off the fill timer (CNN1's 7 ms regime)
// saturates its devices with batch-1 work, so a pure utilization test
// would mislabel it device-limited.
func classifyBottleneck(a *app, am *appMetrics, s AppSaturation) (string, string) {
	dispatches := am.trig[trigBatchFull] + am.trig[trigFillWait] + am.trig[trigDeviceFree]
	fillFrac := 0.0
	if dispatches > 0 {
		fillFrac = float64(am.trig[trigFillWait]) / float64(dispatches)
	}
	switch {
	case am.batches > 0 && s.MeanBatch < 0.5*float64(a.plan.SafeBatch) && fillFrac >= 0.5:
		return "fill-window-limited", fmt.Sprintf(
			"mean batch %.1f of safe %d; %.0f%% of dispatches fired on the %.3g ms fill timer",
			s.MeanBatch, a.plan.SafeBatch, fillFrac*100, a.plan.MaxWaitSeconds*1e3)
	case s.Utilization >= deviceLimitedUtil:
		return "device-limited", fmt.Sprintf(
			"replicas %.0f%% busy with mean batch %.1f of safe %d",
			s.Utilization*100, s.MeanBatch, a.plan.SafeBatch)
	case am.ShedQueue > 0 && am.ShedQueue >= am.Expired:
		return "queue-limited", fmt.Sprintf(
			"admission sheds dominate (%d queue-full vs %d dispatch expiries)",
			am.ShedQueue, am.Expired)
	case am.actions[actScaleBlocked] > 0 || am.liveReplicas >= a.cfg.MaxReplicas:
		return "replica-count-limited", fmt.Sprintf(
			"%d live of max %d replicas, %d placements blocked",
			am.liveReplicas, a.cfg.MaxReplicas, am.actions[actScaleBlocked])
	default:
		return "headroom", fmt.Sprintf(
			"replicas %.0f%% busy, no sustained shed", s.Utilization*100)
	}
}

// burnRates computes the SLO error-budget burn over the short (one
// window) and long (sloLongWindows) horizons plus the cumulative spend.
// Caller holds the registry lock.
func burnRates(am *appMetrics, window, target float64) SLOBurn {
	budget := 1 - target
	b := SLOBurn{
		Target:             target,
		ShortWindowSeconds: window,
		LongWindowSeconds:  float64(sloLongWindows) * window,
	}
	if am.Offered > 0 {
		b.BadFrac = float64(am.ShedQueue+am.Expired+am.Errors) / float64(am.Offered)
		b.BudgetSpent = b.BadFrac / budget
	}
	frac := func(ws []Window) float64 {
		var offered, bad uint64
		for _, w := range ws {
			offered += w.Offered
			bad += w.Shed + w.Errors
		}
		if offered == 0 {
			return 0
		}
		return float64(bad) / float64(offered)
	}
	n := len(am.windows)
	if n >= 1 {
		b.ShortBurn = frac(am.windows[n-1:]) / budget
	}
	if n >= 1 {
		lo := n - sloLongWindows
		if lo < 0 {
			lo = 0
		}
		b.LongBurn = frac(am.windows[lo:]) / budget
	}
	return b
}

// Render formats the report as the golden-file text.
func (r *SaturationReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "saturation report: %d hosts x %d devices, router=%s, seed=%d\n",
		r.Hosts, r.DevicesPerHost, r.Router, r.Seed)
	fmt.Fprintf(&b, "virtual time %.3f s, window %.0f ms, slo target %.2f%% (error budget %.2f%%)\n\n",
		r.VirtualTime, r.WindowSeconds*1e3, r.SLOTarget*100, (1-r.SLOTarget)*100)

	fmt.Fprintf(&b, "%-6s %5s %6s %6s %8s %9s %6s %5s %11s %-21s %s\n",
		"app", "safe", "mean", "repl", "offered", "completed", "shed%", "util%", "knee@req/s", "signal", "bottleneck")
	for _, a := range r.Apps {
		shedFrac := 0.0
		if a.Offered > 0 {
			shedFrac = float64(a.Shed) / float64(a.Offered)
		}
		knee, signal := "-", "-"
		if a.Knee.Detected {
			knee = fmt.Sprintf("%.0f", a.Knee.Rate)
			signal = a.Knee.Signal
		}
		fmt.Fprintf(&b, "%-6s %5d %6.1f %6d %8d %9d %5.1f%% %5.0f %11s %-21s %s\n",
			a.Name, a.SafeBatch, a.MeanBatch, a.Replicas, a.Offered, a.Completed,
			shedFrac*100, a.Utilization*100, knee, signal, a.Bottleneck)
	}

	for _, a := range r.Apps {
		fmt.Fprintf(&b, "\n%s: %s — %s\n", a.Name, a.Bottleneck, a.Why)
		if a.Knee.Detected {
			fmt.Fprintf(&b, "  knee: %.0f req/s offered at %.3f s (%s)\n", a.Knee.Rate, a.Knee.Time, a.Knee.Signal)
		} else {
			fmt.Fprintf(&b, "  knee: none — capacity stayed ahead of offered load\n")
		}
		if a.Incident != nil && a.Incident.Windows > 0 {
			fmt.Fprintf(&b, "  incident: %d of %d incident windows saturated — attributed to the incident, not a capacity knee\n",
				a.Incident.Saturated, a.Incident.Windows)
		}
		c := a.Components
		fmt.Fprintf(&b, "  components ms (p50/p99): queue %.3f/%.3f  fill %.3f/%.3f  service %.3f/%.3f  failover %.3f/%.3f  total %.3f/%.3f\n",
			c.Queue.P50Ms, c.Queue.P99Ms, c.Fill.P50Ms, c.Fill.P99Ms,
			c.Service.P50Ms, c.Service.P99Ms, c.Failover.P50Ms, c.Failover.P99Ms,
			c.Total.P50Ms, c.Total.P99Ms)
		fmt.Fprintf(&b, "  slo: bad %.2f%% of offered (budget spent %.2fx); burn %.2fx short (%.0f ms) / %.2fx long (%.0f ms)\n",
			a.SLO.BadFrac*100, a.SLO.BudgetSpent, a.SLO.ShortBurn, a.SLO.ShortWindowSeconds*1e3,
			a.SLO.LongBurn, a.SLO.LongWindowSeconds*1e3)
		total := a.Triggers.BatchFull + a.Triggers.FillTimer + a.Triggers.DeviceFree
		if total > 0 {
			fmt.Fprintf(&b, "  dispatch triggers: %.0f%% batch-full, %.0f%% fill-timer, %.0f%% device-free (%d batches)\n",
				100*float64(a.Triggers.BatchFull)/float64(total),
				100*float64(a.Triggers.FillTimer)/float64(total),
				100*float64(a.Triggers.DeviceFree)/float64(total), total)
		}
	}

	if len(r.Incidents) > 0 {
		b.WriteString("\nincidents (dead or partitioned hosts):\n")
		for i, in := range r.Incidents {
			fmt.Fprintf(&b, "  #%d %s\n", i+1, in.String())
		}
	}

	if ro := r.Rollout; ro != nil {
		fmt.Fprintf(&b, "\nrollout: stage=%s wave=%d rollbacks=%d cordoned=%d\n",
			ro.Stage, ro.Wave, ro.Rollbacks, ro.CordonedHosts)
	}

	b.WriteString("\nhost device utilization:\n")
	for _, h := range r.HostUtils {
		state := ""
		if !h.Alive {
			state = " (dead)"
		}
		fmt.Fprintf(&b, "  host%-3d %6.2f%%%s\n", h.Host, h.Utilization*100, state)
	}
	return b.String()
}

// JSON renders the report as indented JSON.
func (r *SaturationReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
