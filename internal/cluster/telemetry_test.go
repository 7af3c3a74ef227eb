// Telemetry tests pin the observability seam's two contracts: enabled, it
// records a faithful virtual-time picture of the fleet (metrics registry,
// Prometheus exposition, Chrome-trace process groups); disabled, it costs
// nothing and changes nothing — the simulator renders byte-identically
// with and without a metrics registry attached.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"tpusim/internal/obs"
	"tpusim/internal/serve"
)

// telemetry builds the golden scenario's Telemetry: a large span ring so
// the short run evicts nothing, the fleet registry on a 50 ms window, and
// every 16th dispatched batch traced with its requests.
func telemetry() *Telemetry {
	return &Telemetry{
		Tracer:      obs.NewTracer(1 << 16),
		Metrics:     NewFleetMetrics(0.05),
		SampleEvery: 16,
	}
}

// telemeteredCluster is goldenCluster with observability attached.
func telemeteredCluster(t *testing.T) (*Cluster, *Telemetry) {
	t.Helper()
	tel := telemetry()
	c := goldenClusterWith(t, tel)
	return c, tel
}

// TestTelemetryDisabledAllocs pins the telemetry-off contract: every hook
// on a nil *Telemetry is a branch, not an allocation — the pushed hooks the
// hot loop calls unconditionally, and the span derivation Cluster.log runs
// on every entry. A single allocation here would multiply by millions of
// events in BenchmarkClusterSim.
func TestTelemetryDisabledAllocs(t *testing.T) {
	c := goldenCluster(t)
	c.Run(0.5)
	a := c.apps[0]
	var rep *replica
	for _, r := range a.replicas {
		if r != nil {
			rep = r
			break
		}
	}
	var tel *Telemetry
	batch := []request{{arrival: 0.1, enq: 0.1}}
	dec := &Decision{App: "MLP"}
	allocs := testing.AllocsPerRun(1000, func() {
		tel.onRetire(rep)
		tel.onDispatch(rep, 1, trigBatchFull)
		tel.onComplete(rep, batch, 0.2)
		tel.onBatchKilled(rep)
		tel.logSpan(Event{Host: 0, Kind: "kill"}, subject{})
		tel.logSpan(Event{Host: -1, Kind: "zone-down"}, subject{zone: 0})
		tel.logSpan(Event{Host: 0, Kind: "quarantine"}, subject{rep: rep})
		tel.logSpan(Event{Host: 0, Kind: "degrade"}, subject{factor: 2})
		tel.logSpan(Event{Host: -1, Kind: "scale-up"}, subject{decision: dec})
		tel.logSpan(Event{Host: -1, Kind: "rollout", Detail: "x"}, subject{})
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry hooks allocate %v objects per pass, want 0", allocs)
	}
}

// TestTelemetryTracedAllocs pins what a traced batch costs: with every
// batch sampled, dispatching and completing a batch allocates the same
// whatever its size — the batch span's Span, context and two attribute
// slices, and the request span group's record and its array of per-request
// values. No request span is built, so none allocates.
func TestTelemetryTracedAllocs(t *testing.T) {
	const batchSpan, requestGroup = 4, 2
	tel := &Telemetry{Tracer: obs.NewTracer(64), SampleEvery: 1}
	c := goldenClusterWith(t, tel)
	c.Run(0.5)
	var rep *replica
	for _, r := range c.apps[0].replicas {
		if r != nil {
			rep = r
			break
		}
	}
	for _, n := range []int{1, 8, 64} {
		batch := make([]request, n)
		for i := range batch {
			batch[i] = request{arrival: 0.1, enq: 0.15, attempts: 1}
		}
		// The first run fills the ring's one chunk; later ones reuse it.
		allocs := testing.AllocsPerRun(100, func() {
			tel.onDispatch(rep, n, trigFillWait)
			tel.onComplete(rep, batch, 0.2)
		})
		if want := float64(batchSpan + requestGroup); allocs != want {
			t.Errorf("a traced batch of %d allocates %v objects, want %v (%d for the batch span, %d for the request span group)", n, allocs, want, batchSpan, requestGroup)
		}
	}
}

// TestTelemetryPassive pins the observer effect away: the same scenario
// with and without telemetry attached renders byte-identical snapshots and
// event logs. The sampler tick adds loop events but reads state only.
func TestTelemetryPassive(t *testing.T) {
	plain := goldenCluster(t)
	instrumented := goldenClusterWith(t, telemetry())
	plain.Run(6)
	instrumented.Run(6)
	if a, b := plain.Snapshot().Render(), instrumented.Snapshot().Render(); a != b {
		t.Errorf("telemetry perturbed the simulation:\n--- without ---\n%s\n--- with ---\n%s", a, b)
	}
	ev, evTel := plain.Events(), instrumented.Events()
	if len(ev) != len(evTel) {
		t.Fatalf("event log length changed with telemetry: %d vs %d", len(ev), len(evTel))
	}
	for i := range ev {
		if ev[i] != evTel[i] {
			t.Errorf("event %d differs with telemetry: %v vs %v", i, ev[i], evTel[i])
		}
	}
}

// TestFleetMetricsAccounting checks that the registry keeps no books of its
// own: after every Run segment of the golden (autoscaler scale-down), chaos
// (zone kill, partition, flap, retries) and rollout (wave drains) scenarios,
// every sampled counter equals the simulator's, the per-host cells sum to
// the app totals — including the replicas retired along the way — and the
// closed windows plus the open remainder add up to the cumulative counts.
func TestFleetMetricsAccounting(t *testing.T) {
	fixtures := []struct {
		name     string
		build    func(*testing.T, *Telemetry) *Cluster
		segments []float64
	}{
		{"golden", goldenClusterWith, []float64{1, 3.3, 5.2, 6}},
		{"chaos", chaosCluster, []float64{1.9, 2.6, 4.6, 6}},
		{"rollout", func(t *testing.T, tel *Telemetry) *Cluster {
			return rolloutClusterWith(t, goodPlan(), 0, tel)
		}, []float64{0.55, 0.8, 1.4, 3}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			tel := telemetry()
			c := fx.build(t, tel)
			for _, until := range fx.segments {
				c.Run(until)
				checkOneSetOfBooks(t, c, tel.Metrics)
			}
			// Every scenario retires replicas (scale-downs, wave drains), so
			// each must have exercised the retire fold.
			var retired uint64
			for _, am := range tel.Metrics.apps {
				for _, cl := range am.retired {
					retired += cl.Routed
				}
			}
			if retired == 0 {
				t.Error("no replica retired: the retire fold went unexercised")
			}
			if len(tel.Metrics.apps[0].windows) == 0 {
				t.Error("no closed windows on a 50 ms sampler")
			}
		})
	}
}

// checkOneSetOfBooks compares the registry with the simulator's own
// counters at the end of a Run segment.
func checkOneSetOfBooks(t *testing.T, c *Cluster, f *FleetMetrics) {
	t.Helper()
	for i, a := range c.apps {
		am := f.apps[i]
		at := fmt.Sprintf("t=%.2f %s", c.loop.Now(), a.cfg.Name)
		if am.AppCounters != a.AppCounters {
			t.Errorf("%s counters: registry %+v, simulator %+v", at, am.AppCounters, a.AppCounters)
		}
		var logged [numScaleActions]uint64 // by the entry's Kind, for this app's index
		for _, e := range c.events {
			if e.decision != nil && e.decision.app == i {
				logged[slices.Index(scaleActionNames[:], e.Kind)]++
			}
		}
		if am.actions != logged {
			t.Errorf("%s autoscaler actions (%v): registry %v, event log %v", at, scaleActionNames, am.actions, logged)
		}
		var sum cell
		for _, cl := range am.perHost {
			sum.Routed += cl.Routed
			sum.Completed += cl.Completed
			sum.Shed += cl.Shed
		}
		var routed uint64 // admissions: live replicas plus the retired fold
		for _, rep := range a.replicas {
			if rep != nil {
				routed += rep.routed
			}
		}
		for _, cl := range am.retired {
			routed += cl.Routed
		}
		if sum.Routed != routed || sum.Completed != a.Completed || sum.Shed != a.ShedQueue+a.Expired {
			t.Errorf("%s per-host cells sum to routed %d completed %d shed %d, want %d / %d / %d", at,
				sum.Routed, sum.Completed, sum.Shed, routed, a.Completed, a.ShedQueue+a.Expired)
		}
		if tot := am.totalLat(); tot.Count() != a.Completed {
			t.Errorf("%s latency histogram has %d observations for %d completions", at, tot.Count(), a.Completed)
		}
		// Closed windows + open remainder = cumulative. The open window's
		// completions have an independent witness: the pushed histogram.
		var closed windowCounts
		for _, w := range am.windows {
			closed.offered += w.Offered
			closed.completed += w.Completed
			closed.shed += w.Shed
			closed.errors += w.Errors
		}
		if closed != am.closed {
			t.Errorf("%s closed windows sum to %+v, registry says %+v", at, closed, am.closed)
		}
		if closed.completed+am.winLat.Count() != a.Completed {
			t.Errorf("%s windows hold %d completions + %d in the open window, simulator %d", at,
				closed.completed, am.winLat.Count(), a.Completed)
		}
		cum := am.counts()
		if closed.offered > cum.offered || closed.shed > cum.shed || closed.errors > cum.errors {
			t.Errorf("%s closed windows %+v exceed the cumulative counters %+v", at, closed, cum)
		}
	}
}

// TestFleetMetricsPrometheus checks the exposition is well-formed (the
// strict obs checker) and carries the families the scrape contract names.
func TestFleetMetricsPrometheus(t *testing.T) {
	c, tel := telemeteredCluster(t)
	c.Run(6)
	out := tel.Metrics.Prometheus()
	for _, fam := range []string{
		"tpucluster_virtual_seconds",
		"tpucluster_requests_offered_total",
		"tpucluster_requests_completed_total",
		"tpucluster_requests_shed_total",
		"tpucluster_failovers_total",
		"tpucluster_autoscaler_actions_total",
		"tpucluster_dispatch_triggers_total",
		"tpucluster_replicas_live",
		"tpucluster_device_utilization",
		"tpucluster_request_component_seconds_bucket",
		"tpucluster_request_latency_seconds_bucket",
		"tpucluster_retries_total",
		"tpucluster_retry_budget_exhausted_total",
		"tpucluster_zone_state",
		"tpucluster_rollout_state",
		"tpucluster_rollbacks_total",
		"tpucluster_cordoned_hosts",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	if err := obs.CheckExposition(out); err != nil {
		t.Error(err)
	}
}

// TestOneScrapeServesEveryRegistry is the composition the ops endpoint
// exists for: the serve registry and the fleet registry as collectors of
// one Ops, scraped over HTTP. The concatenated body must
// pass the strict checker — no family name declared by two registries, no
// sample outside its family — with a model name that needs every escape.
func TestOneScrapeServesEveryRegistry(t *testing.T) {
	c, tel := telemeteredCluster(t)
	c.Run(1)
	sm := serve.NewMetrics()
	sm.Model("a\"b\\c\nd\te")
	ops := obs.NewOps(tel.Tracer)
	ops.AddCollector(sm.WritePrometheus)
	ops.AddCollector(func(w io.Writer) { _, _ = io.WriteString(w, tel.Metrics.Prometheus()) })
	srv, err := ops.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(string(body)); err != nil {
		t.Error(err)
	}
	for _, fam := range []string{"tpuserve_up", "tpucluster_virtual_seconds", "obs_spans_dropped_total"} {
		if !strings.Contains(string(body), "# TYPE "+fam+" ") {
			t.Errorf("scrape lacks family %s", fam)
		}
	}
}

// TestGoldenFleetPrometheus pins the fleet exposition byte for byte on the
// chaos scenario (slow host, zone kill, partition, flap, retries,
// autoscaler), so every family and label the registry renders is covered
// by a golden, as the serve exposition is.
func TestGoldenFleetPrometheus(t *testing.T) {
	tel := telemetry()
	c := chaosCluster(t, tel)
	c.Run(6)
	checkGolden(t, "prometheus.txt", tel.Metrics.Prometheus())
}

// TestClusterTrace pins the virtual-time trace: spans are stamped on the
// des clock (virtual seconds from the Unix epoch, not wall time), batch
// spans group under their host's process, request/lifecycle/autoscaler
// spans land on the cluster-level processes, and the whole ramp exports as
// one Perfetto-loadable Chrome trace with named processes and tracks.
func TestClusterTrace(t *testing.T) {
	c, tel := telemeteredCluster(t)
	c.Run(6)
	spans := tel.Tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	procs := map[string]bool{}
	names := map[string]bool{}
	for _, s := range spans {
		procs[s.Proc] = true
		names[s.Name] = true
		// Virtual time: the 6 s run must stamp every span inside [0, 7) s
		// from the epoch. A wall-clock stamp would be ~56 years off.
		if s.End.UnixNano() < 0 || s.End.UnixNano() > int64(7e9) {
			t.Fatalf("span %q stamped outside virtual time: %v", s.Name, s.End)
		}
	}
	for _, want := range []string{"host0", "host2", "apps", "cluster"} {
		if !procs[want] {
			t.Errorf("no spans on process %q (got %v)", want, procs)
		}
	}
	for _, want := range []string{"MLP", "request", "killed", "kill host1"} {
		if !names[want] {
			t.Errorf("no span named %q", want)
		}
	}

	// The export is valid JSON and names its processes and tracks.
	var b strings.Builder
	if err := obs.WriteChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(b.String()), &events); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	metaNames := map[string]bool{}
	for _, ev := range events {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			if args, ok := ev["args"].(map[string]any); ok {
				metaNames[args["name"].(string)] = true
			}
		}
	}
	for _, want := range []string{"host0", "cluster", "apps"} {
		if !metaNames[want] {
			t.Errorf("exported trace does not name process %q", want)
		}
	}

	// Every span that is not a batch or one of its requests — lifecycle,
	// chaos, cordon, quarantine and autoscaler instants — in recording
	// order, from a run that fires each kind: the chaos plan plus a cordon
	// and uncordon outside any rollout.
	tel = telemetry()
	cc := chaosCluster(t, tel)
	cc.loop.At(1.5, cc.controller(func() { cc.cordon(cc.hosts[3]) }))
	cc.loop.At(3.5, cc.controller(func() { cc.uncordon(cc.hosts[3]) }))
	cc.Run(6)
	if d := tel.Tracer.Dropped(); d != 0 {
		t.Fatalf("span ring evicted %d spans; the instant list would be partial", d)
	}
	var list strings.Builder
	for _, s := range tel.Tracer.Spans() {
		if _, batch := spanAttr(s, "batch"); s.Name == "request" || batch {
			continue
		}
		fmt.Fprintf(&list, "%s\t%s\t%s\t%.6f\n", s.Name, s.Track, s.Proc, float64(s.Start.UnixNano())/1e9)
	}
	checkGolden(t, "trace_instants.txt", list.String())
}

// spanAttr returns the value of s's attribute key and whether s has one.
// A dispatched batch's span is the only kind carrying "batch".
func spanAttr(s obs.SpanData, key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value(), true
		}
	}
	return "", false
}

// TestFleetMetricsConcurrentScrape is the -race test for the scrape
// contract: an ops endpoint serving the fleet registry is scraped over
// HTTP while the simulator mutates the registry from another goroutine.
func TestFleetMetricsConcurrentScrape(t *testing.T) {
	c, tel := telemeteredCluster(t)
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
		if !strings.Contains(string(body), "tpucluster_requests_offered_total") {
			t.Fatalf("scrape missing fleet families:\n%s", body)
		}
		scrapes++
	}
}
