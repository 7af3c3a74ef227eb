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
	// IPS is inferences/s, the host interaction overhead of Table 5
	// included.
	IPS float64
	// TOPS is delivered TeraOps/s (2 ops per MAC), device time base.
	TOPS float64
}

// perfMu guards perfCache and is held across a simulation, so concurrent
// callers of SimulateTPU never simulate an app twice.
var (
	perfMu    sync.Mutex
	perfCache = map[string]TPUPerf{}
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
	compiler.Recycle(art)
	totSec := c.Seconds(cfg.ClockMHz) * (1 + b.HostOverheadFrac)
	return TPUPerf{
		App:      b,
		Counters: c,
		IPS:      float64(b.Model.Batch) / totSec,
		TOPS:     c.TeraOps(cfg.ClockMHz),
	}, nil
}

// SimulateTPU compiles (shape-only) and runs one benchmark on the cycle
// simulator at the production configuration, caching the result. Safe for
// concurrent use; each app simulates once, and an error is not cached.
func SimulateTPU(name string) (TPUPerf, error) {
	perfMu.Lock()
	defer perfMu.Unlock()
	if p, ok := perfCache[name]; ok {
		return p, nil
	}
	p, err := CompileAndRun(name)
	if err != nil {
		return TPUPerf{}, err
	}
	perfCache[name] = p
	return p, nil
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

// SimulateAll runs every benchmark through SimulateTPU, in Table 1 order.
func SimulateAll() ([]TPUPerf, error) {
	return eachApp(SimulateTPU)
}

// CompileAndRunAll regenerates every app's compile+run once, bypassing the
// cache, in Table 1 order. This is the six-app loop the benchmark harness
// times. workers is unused: the apps run one after another on the calling
// goroutine, and the argument stays only because the bench/ harness calls
// CompileAndRunAll(1).
func CompileAndRunAll(workers int) ([]TPUPerf, error) {
	return eachApp(CompileAndRun)
}

// eachApp calls run for every benchmark app in Table 1 order, stopping at
// the first error.
func eachApp(run func(name string) (TPUPerf, error)) ([]TPUPerf, error) {
	names := models.Names()
	out := make([]TPUPerf, len(names))
	for i, name := range names {
		p, err := run(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		out[i] = p
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
