// BenchmarkClusterSim answers the scale question the discrete-event core
// exists for: how many fleet events per wall-clock second, at a
// 1000-device pod size that wall-clock simulation could never touch. The
// PR acceptance bound is 10 virtual seconds of a >=1000-device fleet in
// under 5 wall seconds.
package cluster

import (
	"runtime"
	"testing"

	"tpusim/internal/latency"
	"tpusim/internal/obs"
	"tpusim/internal/serve"
	"tpusim/internal/workload"
)

// steadyPod builds hosts x 4 devices running apps x replicas under steady
// Poisson load with the autoscaler off, optionally with telemetry attached.
// The benchmarks run 250 hosts (1000 devices) with 10 apps x 100 replicas.
func steadyPod(tb testing.TB, hosts, nApps, replicas int, tel *Telemetry) *Cluster {
	tb.Helper()
	apps := make([]AppConfig, nApps)
	for i := range apps {
		apps[i] = AppConfig{
			Name:            "APP" + string(rune('0'+i)),
			Service:         latency.ServiceFunc(func(n int) (float64, error) { return 0.5e-3 + 0.1e-3*float64(n), nil }),
			Policy:          serve.Policy{MaxBatch: 64, SLASeconds: 7e-3},
			WeightBytes:     256 << 20,
			Curve:           workload.Constant(4000),
			InitialReplicas: replicas,
		}
	}
	c, err := New(Config{
		Hosts: hosts, DevicesPerHost: 4,
		Router:    BoundedHash,
		Apps:      apps,
		Autoscale: AutoscaleConfig{Disabled: true},
		Seed:      1,
		Telemetry: tel,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestClusterRunAllocs gates the allocation-free event path: on a small
// steady fleet with telemetry off, once the calendar has its capacity, a
// virtual second costs at most one allocation per five hundred events. What
// is left is the lanes' queues still growing and a new 4096-latency chunk
// per app's latency log every few thousand completions: 14 allocations over
// 23,906 events, and up to 25 under -race beside other packages' tests,
// whose runtime allocates too. A closure per arrival, fill timer or
// completion is 0.3 per event and fails this.
func TestClusterRunAllocs(t *testing.T) {
	c := steadyPod(t, 4, 2, 8, nil)
	c.Run(1)
	events, before := c.EventsProcessed(), mallocs()
	c.Run(2)
	events, allocs := c.EventsProcessed()-events, mallocs()-before
	if events < 10_000 {
		t.Fatalf("only %d events in the measured second; the gate needs a busy fleet", events)
	}
	per := float64(allocs) / float64(events)
	t.Logf("%d allocations over %d events = %.5f per event", allocs, events, per)
	if per > 0.002 {
		t.Fatalf("%d allocations over %d events = %.5f per event, want <= 0.002", allocs, events, per)
	}
}

func BenchmarkClusterSim(b *testing.B) {
	const virtualSeconds = 10.0
	var events, allocs uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := steadyPod(b, 250, 10, 100, nil)
		before := mallocs()
		b.StartTimer()
		c.Run(virtualSeconds)
		b.StopTimer()
		allocs += mallocs() - before
		events = c.EventsProcessed()
	}
	if events == 0 {
		b.Fatal("benchmark processed no events")
	}
	perIter := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(events)/perIter, "events/s")
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(virtualSeconds/perIter, "virtual-s/wall-s")
	b.ReportMetric(float64(allocs)/float64(b.N)/float64(events), "allocs/event")
}

// BenchmarkClusterNew times construction alone: the 1000-device pod's
// hosts, plans and its 1000 initial placements, one cluster per op.
func BenchmarkClusterNew(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		steadyPod(b, 250, 10, 100, nil)
	}
}

// BenchmarkSnapshot times Snapshot alone on the BenchmarkClusterSim pod
// after Run(10): ten apps' p50 and p99 over 40 000 logged latencies each,
// plus the per-replica rows. log-B/op is the bytes those latency logs hold,
// what a snapshot that copied them would allocate on top of its own.
func BenchmarkSnapshot(b *testing.B) {
	c := steadyPod(b, 250, 10, 100, nil)
	c.Run(10)
	logged := 0
	for _, a := range c.apps {
		for _, ch := range a.latencies.chunks {
			logged += len(ch)
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		c.Snapshot()
	}
	b.ReportMetric(float64(8*logged), "log-B/op")
}

// BenchmarkClusterSimTelemetry is the enabled-overhead twin: the same pod
// with the fleet registry, sampled spans and the window sampler running.
// The PR 8 gate holds it at >= 90% of BenchmarkClusterSim's event rate.
func BenchmarkClusterSimTelemetry(b *testing.B) {
	const virtualSeconds = 10.0
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := steadyPod(b, 250, 10, 100, &Telemetry{
			Tracer:      obs.NewTracer(obs.DefaultCapacity),
			Metrics:     NewFleetMetrics(0.1),
			SampleEvery: 256,
		})
		b.StartTimer()
		c.Run(virtualSeconds)
		events = c.EventsProcessed()
	}
	b.StopTimer()
	if events == 0 {
		b.Fatal("benchmark processed no events")
	}
	perIter := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(events)/perIter, "events/s")
	b.ReportMetric(float64(events), "events/run")
	b.ReportMetric(virtualSeconds/perIter, "virtual-s/wall-s")
}
