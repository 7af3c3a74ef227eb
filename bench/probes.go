package main

import (
	"math/rand"
	"runtime"
	"time"

	"tpusim/internal/des"
	"tpusim/internal/stats"
)

// A probe measures a layer that has no seam in the public API: it calls the
// layer's public function alone, on the workload's shapes, and reports the
// median of a few timed calls.

// probeNanos times fn, which does n units of work, samples times and
// returns the median nanoseconds per unit.
func probeNanos(samples, n int, fn func()) float64 {
	xs := make([]float64, samples)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return median(xs)
}

// probePercentile times stats.Percentile on 30 000 floats, the sort every
// simulator result and every cluster snapshot pays; microseconds per call.
func probePercentile(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	return probeNanos(9, 1, func() { _, _ = stats.Percentile(xs, 99) }) / 1e3 // it fails on an empty slice only
}

// setBareLoop reports the bare des loop beside the cluster's numbers.
func setBareLoop(l *layerRun) (nsPerEvent float64) {
	events := 2_000_000
	if l.opts.smoke {
		events = 20_000
	}
	ns, allocs := probeBareLoop(events)
	l.set("des.bare_ns_per_event", ns)
	l.set("des.bare_allocs_per_event", allocs)
	return ns
}

// probeBareLoop runs self-rescheduling no-op timers on a bare des.Loop:
// the event rate the cluster layer can never beat. It returns nanoseconds
// and allocations per event.
func probeBareLoop(events int) (nsPerEvent, allocsPerEvent float64) {
	const timers = 1000
	var ns, allocs []float64
	for i := 0; i < 3; i++ {
		var loop des.Loop
		for j := 0; j < timers; j++ {
			period := 1e-3 * (1 + float64(j)/timers)
			var tick func()
			tick = func() { loop.After(period, tick) }
			loop.After(period, tick)
		}
		a, t := mallocs(), time.Now()
		for loop.Processed() < uint64(events) {
			loop.RunUntil(loop.Now() + 1e-3)
		}
		d := time.Since(t)
		n := float64(loop.Processed())
		ns = append(ns, float64(d.Nanoseconds())/n)
		allocs = append(allocs, float64(mallocs()-a)/n)
	}
	return median(ns), median(allocs)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
