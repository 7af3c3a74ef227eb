// Package experiments regenerates every table and figure of the paper's
// evaluation from the simulator and models in this repository. Each
// experiment returns structured rows (for tests and downstream tooling)
// and renders an aligned text report; Sections lists the ones tpubench
// prints, in order, and CSV its plotting data.
package experiments

import (
	"fmt"
	"sync"

	"tpusim/internal/compiler"
	"tpusim/internal/models"
	"tpusim/internal/perfmodel"
	"tpusim/internal/tpu"
)

// TPUPerf is the simulated TPU performance of one app at its production
// batch size.
type TPUPerf struct {
	App models.Benchmark
	// Counters is the device counter file from the cycle simulator.
	Counters tpu.Counters
	// DeviceSeconds is device time per batch; TotalSeconds adds the host
	// interaction overhead of Table 5.
	DeviceSeconds, TotalSeconds float64
	// RawIPS is device-only inferences/s; IPS includes host overhead.
	RawIPS, IPS float64
	// TOPS is delivered TeraOps/s (2 ops per MAC), device time base.
	TOPS float64
	// UBPeakBytes is the compiler's Unified Buffer high-water mark.
	UBPeakBytes int
}

// perfEntry single-flights one app's simulation: concurrent callers block
// on the same Once, so a parallel SimulateAll never simulates an app twice.
type perfEntry struct {
	once sync.Once
	perf TPUPerf
	err  error
}

var (
	perfMu    sync.Mutex
	perfCache = map[string]*perfEntry{}
)

// devPool recycles timing-only devices at the production configuration
// between CompileAndRun calls. Device.Run resets all run state, so counters
// from a pooled device are bit-identical to a fresh one; reuse keeps the
// FIFO slab allocations out of the regeneration loop.
var devPool sync.Pool

// CompileAndRun compiles (shape-only) and runs one benchmark once at the
// production configuration, bypassing the result cache — the regeneration
// cost the benchmark harness measures. Devices and instruction slabs are
// pooled across calls; every compile and every simulated cycle still
// happens per call.
func CompileAndRun(name string) (TPUPerf, error) {
	b, err := models.ByName(name)
	if err != nil {
		return TPUPerf{}, err
	}
	art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		return TPUPerf{}, err
	}
	cfg := tpu.DefaultConfig()
	dev, _ := devPool.Get().(*tpu.Device)
	if dev == nil {
		if dev, err = tpu.New(cfg); err != nil {
			return TPUPerf{}, err
		}
	}
	c, err := dev.Run(art.Program, nil)
	if err != nil {
		return TPUPerf{}, err
	}
	devPool.Put(dev)
	ubPeak := art.UBPeakBytes
	compiler.Recycle(art)
	devSec := c.Seconds(cfg.ClockMHz)
	totSec := devSec * (1 + b.HostOverheadFrac)
	return TPUPerf{
		App:           b,
		Counters:      c,
		DeviceSeconds: devSec,
		TotalSeconds:  totSec,
		RawIPS:        float64(b.Model.Batch) / devSec,
		IPS:           float64(b.Model.Batch) / totSec,
		TOPS:          c.TeraOps(cfg.ClockMHz),
		UBPeakBytes:   ubPeak,
	}, nil
}

// SimulateTPU compiles (shape-only) and runs one benchmark on the cycle
// simulator at the production configuration, caching the result. Safe for
// concurrent use; each app simulates exactly once.
func SimulateTPU(name string) (TPUPerf, error) {
	perfMu.Lock()
	e, ok := perfCache[name]
	if !ok {
		e = &perfEntry{}
		perfCache[name] = e
	}
	perfMu.Unlock()
	e.once.Do(func() { e.perf, e.err = CompileAndRun(name) })
	if e.err != nil {
		perfMu.Lock()
		if perfCache[name] == e {
			delete(perfCache, name)
		}
		perfMu.Unlock()
	}
	return e.perf, e.err
}

// concurrently runs every fn on a goroutine of its own, waits for all of
// them, and returns the first non-nil error in argument order — the one a
// serial loop over fns would have stopped at. Each fn writes only its own
// results, so what the caller reads after the wait does not depend on the
// interleaving.
func concurrently(fns ...func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachApp runs fn for every benchmark app concurrently (one goroutine
// per app — the six-app fan-out behind Table 3, Table 6, and Figure 9
// regeneration) and returns the first error. Results are indexed by the
// models.Names() order, so output ordering is deterministic.
func forEachApp(fn func(i int, name string) error) error {
	names := models.Names()
	fns := make([]func() error, len(names))
	for i, name := range names {
		fns[i] = func() error { return fn(i, name) }
	}
	return concurrently(fns...)
}

// SimulateAll runs every benchmark, in Table 1 order, fanning the six apps
// out across goroutines; per-app results are deterministic (each device is
// independent), so the table is bit-identical to a serial run.
func SimulateAll() ([]TPUPerf, error) {
	out := make([]TPUPerf, len(models.Names()))
	err := forEachApp(func(i int, name string) error {
		p, err := SimulateTPU(name)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CompileAndRunAll regenerates every app's compile+run once, bypassing the
// cache, with the apps sharded across workers goroutines (<= 1 serial).
// This is the six-app loop the benchmark harness times.
func CompileAndRunAll(workers int) ([]TPUPerf, error) {
	names := models.Names()
	out := make([]TPUPerf, len(names))
	if workers <= 1 {
		for i, name := range names {
			p, err := CompileAndRun(name)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			out[i] = p
		}
		return out, nil
	}
	err := forEachApp(func(i int, name string) error {
		p, err := CompileAndRun(name)
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", name, err)
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TPUBatchSeconds is the Table 4 service model for the TPU: analytic batch
// time at an arbitrary batch size plus the MLP0 host overhead.
func TPUBatchSeconds(name string, batch int) (float64, error) {
	b, err := models.ByName(name)
	if err != nil {
		return 0, err
	}
	r, err := perfmodel.Estimate(b.Model, batch, perfmodel.Production())
	if err != nil {
		return 0, err
	}
	return r.Seconds(perfmodel.Production()) * (1 + b.HostOverheadFrac), nil
}

// TPUPrimeSpeedup returns the host-adjusted TPU' speedup for one app:
// device time improves by the perfmodel ratio while host interaction time
// stays constant ("Adding that same extra time drops TPU' means from 2.6
// to 1.9 and 3.9 to 3.2").
func TPUPrimeSpeedup(name string) (float64, error) {
	b, err := models.ByName(name)
	if err != nil {
		return 0, err
	}
	base, err := perfmodel.Estimate(b.Model, b.Model.Batch, perfmodel.Production())
	if err != nil {
		return 0, err
	}
	prime, err := perfmodel.Estimate(b.Model, b.Model.Batch, perfmodel.TPUPrime())
	if err != nil {
		return 0, err
	}
	t := base.Seconds(perfmodel.Production())
	tp := prime.Seconds(perfmodel.TPUPrime())
	host := b.HostOverheadFrac * t
	return (t + host) / (tp + host), nil
}
