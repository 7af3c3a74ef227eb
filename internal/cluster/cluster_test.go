package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"tpusim/internal/latency"
	"tpusim/internal/runtime"
	"tpusim/internal/serve"
	"tpusim/internal/stats"
	"tpusim/internal/workload"
)

// testService is a linear batch-time model: base + perRow x batch.
func testService(base, perRow float64) latency.ServiceModel {
	return latency.ServiceFunc(func(n int) (float64, error) {
		return base + perRow*float64(n), nil
	})
}

// testApp builds a 7 ms SLA app over a flat load curve.
func testApp(name string, rate float64, replicas int) AppConfig {
	return AppConfig{
		Name:            name,
		Service:         testService(0.5e-3, 0.1e-3), // batch 8 -> 1.3 ms, safe batch 65
		Policy:          serve.Policy{MaxBatch: 64, SLASeconds: 7e-3},
		WeightBytes:     100 << 20,
		Curve:           workload.Constant(rate),
		InitialReplicas: replicas,
	}
}

// inSystem counts requests admitted but not yet resolved (queued or in
// flight) across an app's replicas.
func inSystem(a *app) int {
	n := 0
	for _, rep := range a.replicas {
		if rep == nil {
			continue
		}
		n += rep.lane.Len() + len(rep.inFlight)
	}
	return n
}

// TestServeAndAccounting: a small fleet serves a flat load; every offered
// request is accounted for exactly once, and the p99 of served requests
// stays inside the SLA (shed-at-dispatch makes that structural).
func TestServeAndAccounting(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 2,
		Router: LeastLoaded,
		Apps:   []AppConfig{testApp("APP0", 2000, 2)},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5)
	a := c.apps[0]
	if a.Completed == 0 {
		t.Fatal("no requests completed")
	}
	total := a.Completed + a.ShedQueue + a.Expired + a.Errors + uint64(inSystem(a))
	if a.Offered != total {
		t.Fatalf("accounting leak: offered %d != completed %d + shedQ %d + expired %d + errors %d + inSystem %d",
			a.Offered, a.Completed, a.ShedQueue, a.Expired, a.Errors, uint64(inSystem(a)))
	}
	s := c.Snapshot()
	if got := s.Apps[0].P99Ms; got > 7.0+1e-9 {
		t.Errorf("p99 %.3f ms exceeds the 7 ms SLA despite shed-at-dispatch", got)
	}
	if s.Apps[0].ErrorRate != 0 {
		t.Errorf("errors with no faults injected: %v", s.Apps[0].ErrorRate)
	}
}

// TestDeterminism: same config, same seed — byte-identical snapshots and
// event logs.
func TestDeterminism(t *testing.T) {
	build := func() *Cluster {
		c, err := New(Config{
			Hosts: 4, DevicesPerHost: 2,
			Router: BoundedHash,
			Apps: []AppConfig{
				testApp("APP0", 3000, 2),
				testApp("APP1", 1500, 1),
			},
			Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		chaos(t, c, "kill=0@1.5")
		return c
	}
	a, b := build(), build()
	a.Run(4)
	b.Run(4)
	if ra, rb := a.Snapshot().Render(), b.Snapshot().Render(); ra != rb {
		t.Fatalf("same-seed runs diverged:\n--- a ---\n%s--- b ---\n%s", ra, rb)
	}
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event logs differ in length: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d diverged: %v vs %v", i, ea[i], eb[i])
		}
	}
}

// TestSeedSensitivity: a different seed produces a different arrival
// stream — the golden tests pin more than a constant.
func TestSeedSensitivity(t *testing.T) {
	run := func(seed int64) string {
		c, err := New(Config{
			Hosts: 2, DevicesPerHost: 2,
			Router: LeastLoaded,
			Apps:   []AppConfig{testApp("APP0", 2000, 2)},
			Seed:   seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Run(3)
		return c.Snapshot().Render()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds rendered identically")
	}
}

// TestCrossHostFailover: killing a host mid-run quarantines its replicas,
// re-routes orphaned requests to the surviving host, and keeps the
// client-visible error rate under the acceptance bound.
func TestCrossHostFailover(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Router:    LeastLoaded,
		Apps:      []AppConfig{testApp("APP0", 3000, 2)},
		Seed:      7,
		Autoscale: AutoscaleConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	chaos(t, c, "kill=0@2")
	c.Run(5)
	a := c.apps[0]
	if a.Failovers == 0 {
		t.Error("host kill caused no failovers")
	}
	s := c.Snapshot()
	if s.HostsAlive != 1 || len(s.DeadHosts) != 1 || s.DeadHosts[0] != 0 {
		t.Fatalf("host census wrong: alive %d dead %v", s.HostsAlive, s.DeadHosts)
	}
	quarantined := 0
	for _, r := range s.Replicas {
		if r.Host == 0 {
			if r.State != runtime.Quarantined {
				t.Errorf("replica r%d on dead host is %s, want quarantined", r.ID, r.State)
			}
			quarantined++
			if r.QueueLen != 0 {
				t.Errorf("dead replica r%d still holds %d queued requests", r.ID, r.QueueLen)
			}
		}
	}
	if quarantined == 0 {
		t.Error("no replicas on the killed host")
	}
	if got := s.Apps[0].ErrorRate; got >= 0.01 {
		t.Errorf("error rate %.4f, want < 1%%", got)
	}
	// Completions keep flowing after the kill: the surviving replica holds.
	if before, after := eventsBefore(c, 2.0), a.Completed; after == 0 || before == 0 {
		t.Errorf("serving did not continue across the kill (before-kill events %d, completed %d)", before, after)
	}
	// The kill and per-replica quarantines are in the log.
	kinds := map[string]int{}
	for _, e := range c.Events() {
		kinds[e.Kind]++
	}
	if kinds["kill"] != 1 || kinds["quarantine"] == 0 {
		t.Errorf("event log misses the kill story: %v", kinds)
	}
}

func eventsBefore(c *Cluster, t float64) int {
	n := 0
	for _, e := range c.events {
		if e.Time < t {
			n++
		}
	}
	return n
}

// TestEventLogCommonPrefix: the PR 4 replay property extended across
// hosts — a shorter same-seed run's per-host event log is a prefix of a
// longer run's. Virtual time makes this exact, not probabilistic.
func TestEventLogCommonPrefix(t *testing.T) {
	build := func() *Cluster {
		// APP0 at 12000 req/s needs both its replicas; killing one's host
		// mid-run forces failover traffic and post-kill scale-ups, so the
		// long run keeps extending the log past the short horizon.
		c, err := New(Config{
			Hosts: 4, DevicesPerHost: 2,
			Router: BoundedHash,
			Apps: []AppConfig{
				testApp("APP0", 12000, 2),
				testApp("APP1", 2500, 2),
			},
			Seed: 99,
		})
		if err != nil {
			t.Fatal(err)
		}
		chaos(t, c, "kill=2@1")
		// Scheduled in both runs, but fires only inside the long horizon:
		// guarantees the long log strictly extends the short one.
		chaos(t, c, "kill=3@3")
		return c
	}
	long, short := build(), build()
	long.Run(4)
	short.Run(2)
	hostEvents := func(c *Cluster, h int) []Event {
		return slices.DeleteFunc(c.Events(), func(e Event) bool { return e.Host != h })
	}
	for h := -1; h < 4; h++ {
		le, se := hostEvents(long, h), hostEvents(short, h)
		if len(se) > len(le) {
			t.Fatalf("host %d: short run logged more events (%d) than long (%d)", h, len(se), len(le))
		}
		for i := range se {
			if se[i] != le[i] {
				t.Fatalf("host %d event %d diverged:\nshort: %v\nlong:  %v", h, i, se[i], le[i])
			}
		}
	}
	// The long run actually extends the log (the property is non-vacuous).
	if len(long.Events()) <= len(short.Events()) {
		t.Fatalf("long run log (%d) does not extend short run log (%d)", len(long.Events()), len(short.Events()))
	}
}

// TestAutoscalerRampUpAndDown: a rate ramp forces scale-ups; the ebb
// drains replicas back toward the floor. Decisions land in the snapshot.
func TestAutoscalerRampUpAndDown(t *testing.T) {
	curve, err := workload.NewPiecewiseLinear(
		workload.Point{T: 0, Rate: 500},
		workload.Point{T: 2, Rate: 9000},
		workload.Point{T: 5, Rate: 9000},
		workload.Point{T: 6, Rate: 400},
		workload.Point{T: 12, Rate: 400},
	)
	if err != nil {
		t.Fatal(err)
	}
	app := testApp("APP0", 0, 1)
	app.Curve = curve
	app.MinReplicas = 1
	c, err := New(Config{
		Hosts: 4, DevicesPerHost: 2,
		Router: LeastLoaded,
		Apps:   []AppConfig{app},
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5)
	peak := c.apps[0].liveReplicas()
	if peak < 2 {
		t.Fatalf("autoscaler never scaled up: %d replicas at peak", peak)
	}
	c.Run(12)
	final := c.apps[0].liveReplicas()
	if final >= peak {
		t.Errorf("autoscaler never scaled down: peak %d, final %d", peak, final)
	}
	ups, downs := 0, 0
	for _, d := range appDecisions(c, c.apps[0]) {
		switch d.Action {
		case "scale-up":
			ups++
		case "scale-down":
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Errorf("decision ledger: %d ups, %d downs, want both > 0", ups, downs)
	}
	s := c.Snapshot()
	if len(s.Decisions) == 0 || len(s.Decisions) != len(appDecisions(c, c.apps[0])) {
		t.Error("decisions missing from snapshot")
	}
	// Shed stays bounded once capacity catches up.
	if frac := s.Apps[0].ShedFrac; frac > 0.15 {
		t.Errorf("shed fraction %.3f through the ramp, autoscaler not keeping up", frac)
	}
}

// TestPlacementHonorsWeightMemory: a device only takes replicas whose
// footprints fit its Weight Memory, and scale-up is blocked (and logged)
// when the fleet is full.
func TestPlacementHonorsWeightMemory(t *testing.T) {
	app := testApp("BIG", 50, 2)
	app.WeightBytes = 6 << 30 // only one fits per 8 GiB device
	if _, err := New(Config{
		Hosts: 1, DevicesPerHost: 1,
		Apps: []AppConfig{app},
		Seed: 1,
	}); err == nil {
		t.Fatal("two 6 GiB replicas placed on one 8 GiB device")
	}

	// A fleet with exactly enough room places, then blocks further growth.
	app.Curve = workload.Constant(50000) // far over capacity: force scale-up pressure
	app.MaxReplicas = 8                  // the ceiling is weight memory, not the replica cap
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Apps: []AppConfig{app},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2)
	blocked := false
	for _, d := range appDecisions(c, c.apps[0]) {
		if d.Action == "scale-blocked" {
			blocked = true
		}
	}
	if !blocked {
		t.Error("over-capacity fleet never logged a scale-blocked decision")
	}
	if got := c.apps[0].liveReplicas(); got != 2 {
		t.Errorf("replicas grew past the fleet's weight capacity: %d", got)
	}
}

// TestOversizeFootprintRejected: a model bigger than a device's Weight
// Memory can never be placed.
func TestOversizeFootprintRejected(t *testing.T) {
	app := testApp("HUGE", 50, 1)
	app.WeightBytes = 9 << 30
	if _, err := New(Config{Hosts: 1, DevicesPerHost: 1, Apps: []AppConfig{app}, Seed: 1}); err == nil {
		t.Fatal("9 GiB footprint accepted on an 8 GiB device")
	}
}

// TestNoOperatingPointRejected: an app whose batch-1 service time exceeds
// its SLA has no deadline-safe plan; New must say so (the caller decides
// to drop the app, as the experiments layer does for CNN1).
func TestNoOperatingPointRejected(t *testing.T) {
	app := testApp("SLOW", 50, 1)
	app.Service = testService(10e-3, 1e-3)
	_, err := New(Config{Hosts: 1, DevicesPerHost: 1, Apps: []AppConfig{app}, Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "no deadline-safe operating point") {
		t.Fatalf("err = %v, want no-operating-point", err)
	}
}

// TestRunSegmentsCompose: Run(2)+Run(5) equals Run(5) — the property that
// lets callers interleave snapshots and kills with simulation segments.
func TestRunSegmentsCompose(t *testing.T) {
	build := func() *Cluster {
		c, err := New(Config{
			Hosts: 2, DevicesPerHost: 2,
			Router: WeightedRoundRobin,
			Apps:   []AppConfig{testApp("APP0", 2000, 2)},
			Seed:   5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	oneShot, segmented := build(), build()
	oneShot.Run(5)
	segmented.Run(2)
	segmented.Run(5)
	if a, b := oneShot.Snapshot().Render(), segmented.Snapshot().Render(); a != b {
		t.Fatalf("segmented run diverged from one-shot:\n--- one ---\n%s--- seg ---\n%s", a, b)
	}
}

// TestBadValuesRejected: a config value or router weight that is not a
// number is an error, not a panic on the calendar or a NaN spread through
// every smooth-WRR accumulator.
func TestBadValuesRejected(t *testing.T) {
	withInterval := func(iv float64) func() error {
		return func() error {
			_, err := New(Config{Hosts: 1, DevicesPerHost: 1, Apps: []AppConfig{testApp("APP0", 50, 1)},
				Autoscale: AutoscaleConfig{Interval: iv}, Seed: 1})
			return err
		}
	}
	r := NewRouter(WeightedRoundRobin)
	for name, call := range map[string]func() error{
		"autoscale interval NaN":  withInterval(math.NaN()),
		"autoscale interval +Inf": withInterval(math.Inf(1)),
		"autoscale interval -Inf": withInterval(math.Inf(-1)),
		"router weight NaN":       func() error { return r.Add(0, math.NaN()) },
		"router weight +Inf":      func() error { return r.Add(0, math.Inf(1)) },
		"router weight -Inf":      func() error { return r.Add(0, math.Inf(-1)) },
		"router negative id":      func() error { return r.Add(-1, 1) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if n := r.n; n != 0 {
		t.Errorf("rejected Adds registered %d replicas", n)
	}
	// The defaults still hold: 0 and negative intervals mean 0.25 s.
	for _, iv := range []float64{0, -1} {
		if err := withInterval(iv)(); err != nil {
			t.Errorf("interval %v: %v", iv, err)
		}
	}
}

// TestLiveCapacityIDOrder: the autoscaler's capacity is summed in replica
// id order, bit for bit, on a fleet whose per-replica rates differ — one
// device shared by five replicas, the other by four on a slowed host — and
// where another summation order gives a different last bit.
func TestLiveCapacityIDOrder(t *testing.T) {
	c, err := New(Config{
		Hosts: 2, DevicesPerHost: 1,
		Apps:      []AppConfig{testApp("APP0", 50, 7), testApp("APP1", 50, 2)},
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.hosts[1].slow = 1.7
	a := c.apps[0]
	rates := make([]float64, a.nextID) // by id, collected from the devices
	for _, h := range c.hosts {
		for _, d := range h.devices {
			for _, rep := range d.replicas {
				if rep.app == a {
					rates[rep.id] = perReplicaRate(rep)
				}
			}
		}
	}
	sum := func(rates []float64) float64 {
		total := 0.0
		for _, r := range rates {
			total += r
		}
		return total
	}
	want := sum(rates)
	reordered := false
	for i := range rates {
		rot := append(slices.Clone(rates[i:]), rates[:i]...)
		slices.Reverse(rot)
		reordered = reordered || sum(rot) != want
	}
	if len(rates) != 7 || !reordered {
		t.Fatalf("%d replicas, order-sensitive sum %v: the fleet does not test summation order", len(rates), reordered)
	}
	if got := a.liveCapacity(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("liveCapacity = %v, id-order sum %v", got, want)
	}
}

// TestEventCounts: every event the calendar fires is counted once, by
// kind, on the golden, chaos (with telemetry ticks) and rollout scenarios,
// and the steady pod of BenchmarkClusterSim voids no fill timer: no replica
// there takes a second arrival while its head waits for fill, so no timer
// is armed twice under one generation.
func TestEventCounts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *Cluster
		until float64
	}{
		{"golden", goldenCluster(t), 6},
		{"chaos", chaosCluster(t, telemetry()), 6},
		{"rollout", rolloutCluster(t, badPlan(), 0), 3},
		{"pod", steadyPod(t, 250, 10, 100, nil), 1},
	} {
		tc.c.Run(tc.until)
		n := tc.c.counts
		sum := n.arrivals + n.fillTimers + n.fillTimersVoided + n.completions + n.completionsVoided + n.controller
		t.Logf("%s: %+v", tc.name, n)
		if processed := tc.c.EventsProcessed(); sum != processed {
			t.Errorf("%s: the counts sum to %d, EventsProcessed is %d", tc.name, sum, processed)
		}
		if n.arrivals == 0 || n.completions == 0 || n.fillTimers == 0 {
			t.Errorf("%s: %+v: the scenario does not exercise the request path", tc.name, n)
		}
		if tc.name != "pod" && n.controller == 0 {
			t.Errorf("%s: no controller event fired", tc.name)
		}
		if tc.name == "pod" && (n.fillTimersVoided != 0 || n.controller != 0) {
			t.Errorf("pod: %d fill timers voided and %d controller events, want 0 and 0", n.fillTimersVoided, n.controller)
		}
	}
}

// TestNonFiniteTelemetryWindow: a NaN or infinite window falls back to the
// default like a non-positive one, so cluster.New builds the fleet instead
// of panicking when the sampler's first tick reaches the calendar.
func TestNonFiniteTelemetryWindow(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if got := NewFleetMetrics(w).window; got != DefaultWindowSeconds {
			t.Errorf("NewFleetMetrics(%v) samples every %v s, want %v", w, got, DefaultWindowSeconds)
		}
		c := goldenClusterWith(t, &Telemetry{Metrics: NewFleetMetrics(w)})
		c.Run(0.2)
	}
}

// gather returns a new slice of the log's latencies in completion order:
// the plain copy the chunked percentiles are checked against.
func (l *latencyLog) gather() []float64 {
	var out []float64
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// TestLatencyLogPercentiles: a latency log gathers to the slice a plain
// append would have built, so the snapshot's p50 and p99 are bit-identical
// to a plain slice's at every chunk edge.
func TestLatencyLogPercentiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range []int{latencyChunk - 1, latencyChunk, latencyChunk + 1, 3 * latencyChunk} {
		var log latencyLog
		var plain []float64
		for range n {
			lat := rng.ExpFloat64() * 1e-3
			log.add(lat)
			plain = append(plain, lat)
		}
		got := log.gather()
		if !slices.Equal(got, plain) {
			t.Fatalf("n=%d: the log gathers to a different sequence than a plain slice", n)
		}
		qs, err := stats.PercentilesInPlace(got, 50, 99)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.Percentiles(plain, 50, 99)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if math.Float64bits(qs[i]) != math.Float64bits(want[i]) {
				t.Errorf("n=%d: percentile %d is %v from the log, %v from a plain slice", n, i, qs[i], want[i])
			}
		}
	}
}

// checkLatencyPercentiles fails t unless the snapshot's selection on the
// log, stats.ChunkedPercentiles, equals the copy-and-select oracle,
// stats.PercentilesInPlace on gather(), bit for bit.
func checkLatencyPercentiles(t *testing.T, name string, log *latencyLog, ps ...float64) {
	t.Helper()
	got, err := stats.ChunkedPercentiles(log.chunks, ps...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := stats.PercentilesInPlace(log.gather(), ps...)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: p%v is %v (%#x) from the chunks, %v (%#x) from a copy",
				name, ps[i], got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLatencyPercentilesMatchOracle: the snapshot's percentiles, selected on
// the log where it lies, are bit-identical to a gathered copy's at every
// chunk edge, on ties, on one value repeated throughout, on rare spikes, on
// values a few ulps apart (spans of 8191 and 8192 ulps: one split resolves
// the first to single patterns, not the second), and on values from +0 and
// subnormals to MaxFloat64, at and beside the top buckets' floor (2^-24)
// and clamp (2^8).
func TestLatencyPercentilesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 54))
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 1e-12, math.Nextafter(0x1p-24, 0), 0x1p-24,
		math.Nextafter(0x1p-24, 1), 0x1p-24 * (1 + 1.0/256), math.Nextafter(0x1p8, 0), 0x1p8,
		math.Nextafter(0x1p8, math.Inf(1)), 1e6, math.MaxFloat64,
	}
	values := []struct {
		name  string
		value func(i int) float64
	}{
		{"exp", func(int) float64 { return rng.ExpFloat64() * 1e-3 }},
		{"ties", func(int) float64 { return float64(rng.IntN(4)) * 0.5e-3 }},
		{"one-value", func(int) float64 { return 1.25e-3 }},
		{"spikes", func(int) float64 {
			if rng.IntN(200) == 0 {
				return 0.1 + rng.Float64()
			}
			return 1e-3 + rng.Float64()*1e-5
		}},
		{"bucket-neighbours", func(int) float64 {
			// 1 ms and its ulp neighbours: one bucket, values a bit apart.
			return math.Float64frombits(math.Float64bits(1e-3) + uint64(rng.IntN(64)))
		}},
		{"span-8191-ulps", func(i int) float64 { return ulpsAbove(1e-3, i, 8191, rng) }},
		{"span-8192-ulps", func(i int) float64 { return ulpsAbove(1e-3, i, 8192, rng) }},
		{"extremes", func(i int) float64 {
			if i%3 == 0 {
				return rng.ExpFloat64() * 1e-3
			}
			return edges[rng.IntN(len(edges))]
		}},
	}
	pss := [][]float64{{50, 99}, {99}, {0, 100}, {37.5, 12.34, 99.9, 66.6}}
	for _, v := range values {
		for _, n := range []int{1, 2, 17, latencyChunk - 1, latencyChunk, latencyChunk + 1, 2*latencyChunk + 1} {
			var log latencyLog
			for i := range n {
				log.add(v.value(i))
			}
			for _, ps := range pss {
				checkLatencyPercentiles(t, fmt.Sprintf("%s/n=%d", v.name, n), &log, ps...)
			}
		}
	}
}

// ulpsAbove is the i-th of a run of values at most span ulps above base:
// base itself, then base+span, then random ones between.
func ulpsAbove(base float64, i, span int, rng *rand.Rand) float64 {
	k := rng.IntN(span + 1)
	switch i {
	case 0:
		k = 0
	case 1:
		k = span
	}
	return math.Float64frombits(math.Float64bits(base) + uint64(k))
}

// FuzzLatencyPercentiles: the chunked selection equals the gathered copy's
// on any log. The log repeats data's latencies until it holds count of
// them, so it crosses chunk edges; each byte is a latency of one class by
// its top three bits: small tied values, values below 2^-24, subnormals
// and +0, values at and above 2^8, distinct values near a millisecond, or
// the domain's extremes. A percentile out of [0, 100] is an error.
func FuzzLatencyPercentiles(f *testing.F) {
	f.Add([]byte{3, 1, 2}, uint16(3), 50.0, 99.0)
	f.Add([]byte{0x21, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, uint16(latencyChunk+1), 99.0, 50.0)
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint16(2*latencyChunk+1), 0.0, 100.0)
	f.Fuzz(func(t *testing.T, data []byte, count uint16, p1, p2 float64) {
		if len(data) == 0 {
			return
		}
		var log latencyLog
		for i := range int(count)%(3*latencyChunk) + 1 {
			b := data[i%len(data)]
			v := float64(b & 31)
			var lat float64
			switch b >> 5 {
			case 0, 1:
				lat = v * 1e-4
			case 2:
				lat = math.Ldexp(v+1, -40)
			case 3:
				lat = math.Float64frombits(uint64(b & 31))
			case 4:
				lat = math.Ldexp(v+1, 8+int(b&7))
			case 5, 6:
				lat = 1e-3 + v*1e-5 + float64(i)*1e-12
			default:
				lat = []float64{0, 0x1p-24, 0x1p8, math.MaxFloat64}[b&3]
			}
			log.add(lat)
		}
		ps := []float64{p1, p2}
		if !(p1 >= 0 && p1 <= 100 && p2 >= 0 && p2 <= 100) {
			if _, err := stats.ChunkedPercentiles(log.chunks, ps...); err == nil {
				t.Fatalf("percentiles %v accepted", ps)
			}
			return
		}
		checkLatencyPercentiles(t, "fuzz", &log, ps...)
	})
}
