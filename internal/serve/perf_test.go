package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	rt "tpusim/internal/runtime"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// TestSubmitSteadyStateAllocs pins the serving path's allocation budget:
// with telemetry off, a steady-state Submit round trip — admit, enqueue,
// dispatch, backend, respond — must not allocate. Pooled calls and their
// done channels, lane-owned batch/input scratch, and the reused fill timer
// make the whole loop recycle; this gate keeps it that way.
func TestSubmitSteadyStateAllocs(t *testing.T) {
	b := NewSimBackend(0)
	sm := latency.ServiceFunc(func(batch int) (float64, error) { return 1e-4, nil })
	b.AddModel("m", sm)
	s := NewServer(b)
	if _, err := s.Register("m", ModelConfig{
		// MaxBatch 1 keeps the dispatcher deterministic under AllocsPerRun's
		// serial driver: every Submit is its own batch, no fill-wait.
		Policy:  Policy{MaxBatch: 1, SLASeconds: 1},
		Service: sm,
	}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	in := tensor.NewF32(1, 4)
	// Warm the call pool, the lane scratch, and the metrics map entries.
	for i := 0; i < 32; i++ {
		if _, err := s.Submit("m", in); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Submit("m", in); err != nil {
			t.Fatal(err)
		}
	})
	// The budget is zero; allow a fractional average for incidental runtime
	// allocations (GC metadata, pool repopulation after a collection).
	if avg > 0.5 {
		t.Errorf("Submit round trip allocates %.2f objects/op, want 0", avg)
	}
}

// TestRuntimeBackendSteadyStateAllocs bounds the per-dispatch allocations of
// the real backend, in objects and in bytes: after the first run compiles
// and the scratch warms up, a full-batch dispatch may allocate only the
// payload — the dequantized driver output, the per-request output tensors
// handed to callers, and the result header. Everything else (quantized
// input, packed host buffer, unpacked output, the device's memories and
// its weight-tile buffers) is reused run over run. Objects alone are not
// enough: two 64 KiB objects per tile load once passed as "41 objects/op".
func TestRuntimeBackendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs race-free in make bench-gate")
	}
	srv, err := rt.NewServer(1, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Tiny("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	p := nn.InitRandom(m, 11, 0.25)
	b := NewRuntimeBackend(srv)
	if err := b.AddModel(m, p); err != nil {
		t.Fatal(err)
	}
	rows := make([]*tensor.F32, m.Batch)
	for i := range rows {
		rows[i] = tensor.NewF32(1, m.InputElems())
		rows[i].FillRandom(int64(100+i), 1)
	}
	for i := 0; i < 4; i++ {
		if _, err := b.Run(m.Name, rows); err != nil {
			t.Fatal(err)
		}
	}
	// Payload that must stay per-dispatch: each request's output tensor
	// (header+shape+data, 3 per request) plus the driver's dequantized
	// output and result struct. Measured 29 objects and ~2.3 KB per dispatch
	// at Batch=8; the margins absorb jitter. Every weight-tile load views
	// the tile's bytes in weight DRAM through the device's one tile —
	// re-pointed every load, so corruption injected there stays visible
	// to the integrity checks — and copies nothing: a copy of the weights per
	// load costs 64 KiB per tile (hundreds of KB per dispatch here), and the
	// byte ceiling fails loudly if that comes back.
	objLimit := float64(10 + 3*m.Batch)
	const byteCeiling = 6 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := b.Run(m.Name, rows); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 51 // AllocsPerRun warms up with one more run
	t.Logf("backend dispatch: %.1f objects/op (limit %.0f), %.0f B/op (ceiling %d)", avg, objLimit, bytes, byteCeiling)
	if avg > objLimit {
		t.Errorf("backend dispatch allocates %.1f objects/op, want <= %.0f", avg, objLimit)
	}
	if bytes > byteCeiling {
		t.Errorf("backend dispatch allocates %.0f B/op, want <= %d", bytes, byteCeiling)
	}
}

// BenchmarkServeSaturation is the serving-path throughput benchmark: a
// closed loop of concurrent submitters saturating one tiny model on a real
// RuntimeBackend (compile once, then steady-state batched inference).
// req/s/core is the headline: it moves when the serve path's per-request
// cost moves, which is exactly what the zero-alloc work targets.
func BenchmarkServeSaturation(b *testing.B) {
	srv, err := rt.NewServer(1, tpu.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	m, err := models.Tiny("MLP0")
	if err != nil {
		b.Fatal(err)
	}
	p := nn.InitRandom(m, 11, 0.25)
	back := NewRuntimeBackend(srv)
	if err := back.AddModel(m, p); err != nil {
		b.Fatal(err)
	}
	sm := latency.ServiceFunc(func(batch int) (float64, error) {
		return 50e-6 + 10e-6*float64(batch), nil
	})
	s := NewServer(back)
	if _, err := s.Register(m.Name, ModelConfig{
		// A loose SLA and a short fill wait: the benchmark measures
		// serving-path overhead at saturation, not shed behavior.
		Policy:  Policy{MaxBatch: m.Batch, SLASeconds: 1, MaxWaitSeconds: 100e-6},
		Service: sm,
	}); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// One warm-up request compiles the model outside the timed region.
	warm := tensor.NewF32(1, m.InputElems())
	warm.FillRandom(1, 1)
	if _, err := s.Submit(m.Name, warm); err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	var served, failed int
	b.SetParallelism(8) // 8*GOMAXPROCS submitters: enough to fill batches
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		in := tensor.NewF32(1, m.InputElems())
		in.FillRandom(2, 1)
		ok, bad := 0, 0
		for pb.Next() {
			if _, err := s.Submit(m.Name, in); err != nil {
				bad++
			} else {
				ok++
			}
		}
		mu.Lock()
		served += ok
		failed += bad
		mu.Unlock()
	})
	elapsed := time.Since(start).Seconds()
	b.StopTimer()
	if served == 0 {
		b.Fatalf("no requests served (%d failed)", failed)
	}
	// Shed requests (queue full under the closed loop) are part of running
	// saturated, but the headline only counts completed work.
	b.ReportMetric(float64(served)/elapsed/float64(runtime.GOMAXPROCS(0)), "req/s/core")
	b.ReportMetric(float64(failed)/float64(served+failed)*100, "%shed")
}
