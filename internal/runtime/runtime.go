// Package runtime is the host-side software stack of Section 2: the User
// Space Driver that "sets up and controls TPU execution, reformats data
// into TPU order, translates API calls into TPU instructions ... compiles
// a model the first time it is evaluated, caching the program image and
// writing the weight image into the TPU's weight memory; the second and
// following evaluations run at full speed", plus the multi-device server
// abstraction (a server carries four TPUs).
//
// The host compiles, and its TPUs run the result: a Server quantizes and
// compiles each model once, calibrating on the first batch it sees for the
// model, and reserves the model's Weight Memory region once, so the model
// sits at the same base on every device. Each device's Driver loads that one
// program on its first use of the model. After compile the server keeps
// only the quantized model's input and output domains; the program's weight
// image is the one copy of the int8 weights, which every device reads and
// none writes (a device's weight flips go to tile copies of its own). So a
// server's devices give one answer per input.
//
// The server is safe for concurrent use: a model compiles once however many
// goroutines race in cold, and loads once per device; Weight Memory regions
// are reserved atomically and returned to a free list on compile failure;
// and each loaded model's device is serialized independently so different
// models evaluate in parallel on one TPU.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"tpusim/internal/compiler"
	"tpusim/internal/fault"
	"tpusim/internal/isa"
	"tpusim/internal/nn"
	"tpusim/internal/obs"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// region is a reserved span of Weight Memory.
type region struct {
	base, size uint64
}

// maxDeviceSpans caps how many device cycle events one traced run stitches
// into a live trace, so a single giant program cannot evict every other
// span from the tracer's bounded ring.
const maxDeviceSpans = 1024

// program is the server's one compile of a model. once single-flights it:
// the first goroutine to need the model compiles inside once.Do while every
// concurrent caller blocks on the same Do and then shares the result.
type program struct {
	once sync.Once
	err  error
	art  *compiler.Artifact
	// qm is the quantized model's Model and Edge only: its layer weights
	// live in art's weight image alone.
	qm *nn.QuantizedModel
	// cycles is the timing model's cycle count for one batch, for timeout
	// derivation, written under the server's mu.
	cycles int64
}

// Driver is the User Space Driver's per-device half: a device per loaded
// model, each running the server's program for that model.
type Driver struct {
	srv *Server
	cfg tpu.Config
	// label names the driver's device on telemetry tracks and in the
	// per-device Prometheus gauges ("tpu0".."tpu3").
	label string
	// inj is the driver's fault injector when the server was built with a
	// chaos plan; nil in production. The injector's Hook is already wired
	// into cfg — inj is kept only for the deterministic compile-failure
	// probe (CompileErr) and for chaos scripts reaching the injector.
	inj *fault.Injector

	// mu guards the device's one record, below: its loaded models, its
	// lifetime accounting and its health. It is only ever held briefly, and
	// a successful batch updates its run counters and its health state in
	// one critical section.
	mu    sync.Mutex
	slots map[string]*slot
	// runs counts completed batches.
	runs int64
	// compilations counts the server compiles this device's first
	// evaluations ran.
	compilations int
	// The health record: the state machine's position, the failure streak
	// that drives it and what it has seen.
	state      HealthState
	consecFail int
	lastErr    string
	failures   int64
	probes     int64
	probeArmed bool
}

// slot is one model loaded on one device. once single-flights the load.
// runSem serializes access to the slot's device (the functional simulator
// is stateful); distinct models run concurrently on their own devices.
// Unlike a mutex, the semaphore is context-aware: a caller whose context is
// cancelled while queued behind a long run returns ctx.Err() promptly
// instead of waiting its turn for a device it no longer wants.
type slot struct {
	once sync.Once
	err  error
	p    *program
	dev  *tpu.Device
	// loaded is set under the driver's mu when the load succeeds; the
	// integrity scrubber and metrics aggregation skip slots mid-load.
	loaded bool

	runSem chan struct{} // cap 1

	// Per-batch scratch — the quantized input, packed host buffer, and
	// unpacked quantized output — reused run after run. Guarded by runSem:
	// only the goroutine holding the semaphore may touch these, and every
	// read of them (unpack included) happens before release.
	qin  *tensor.I8
	host []int8
	qout *tensor.I8
}

// acquire takes the slot's device, or gives up when ctx is cancelled.
func (sl *slot) acquire(ctx context.Context) error {
	select {
	case sl.runSem <- struct{}{}:
		return nil
	default:
	}
	select {
	case sl.runSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (sl *slot) release() { <-sl.runSem }

// InferenceResult is one batch's outcome.
type InferenceResult struct {
	// Output is the dequantized model output.
	Output *tensor.F32
	// Counters is the device's performance-counter file for the run.
	Counters tpu.Counters
	// DeviceSeconds is simulated device time; it is the latency a real
	// deployment would observe from the accelerator.
	DeviceSeconds float64
	// WallSeconds is host wall-clock time for the attempt that produced
	// this result; it feeds the latency learner behind timeouts and hedge
	// delays.
	WallSeconds float64
	// Cached reports whether the device already held the model's program,
	// so the run neither compiled nor loaded it.
	Cached bool
}

// reserveWeights returns a tile-aligned Weight Memory base for n bytes,
// reusing freed regions first-fit before extending the high-water mark.
func (s *Server) reserveWeights(n uint64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.weightFree {
		if r.size >= n {
			if r.size == n {
				s.weightFree = slices.Delete(s.weightFree, i, i+1)
			} else {
				s.weightFree[i] = region{base: r.base + n, size: r.size - n}
			}
			return r.base
		}
	}
	base := s.weightNext
	s.weightNext += n
	return base
}

// releaseWeights returns a region to the allocator. The top-most region
// rolls the high-water mark back, absorbing the free regions it uncovers;
// interior regions go on the free list.
func (s *Server) releaseWeights(r region) {
	if r.size == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.base+r.size != s.weightNext {
		s.weightFree = append(s.weightFree, r)
		return
	}
	s.weightNext = r.base
	for {
		i := slices.IndexFunc(s.weightFree, func(f region) bool { return f.base+f.size == s.weightNext })
		if i < 0 {
			return
		}
		s.weightNext = s.weightFree[i].base
		s.weightFree = slices.Delete(s.weightFree, i, i+1)
	}
}

// program returns the server's compile of m, compiling it on the first batch
// the server sees for the model; d is the driver whose evaluation pays.
func (s *Server) program(d *Driver, m *nn.Model, params *nn.Params, in *tensor.F32) (*program, error) {
	s.mu.Lock()
	p := s.programs[m.Name]
	if p == nil {
		p = &program{}
		s.programs[m.Name] = p
	}
	s.mu.Unlock()
	p.once.Do(func() { p.err = s.compile(d, p, m, params, in) })
	if p.err != nil {
		// Drop the poisoned program so a later evaluation can retry.
		s.mu.Lock()
		if s.programs[m.Name] == p {
			delete(s.programs, m.Name)
		}
		s.mu.Unlock()
		return nil, p.err
	}
	return p, nil
}

// compile is the single-flighted slow path: quantize, reserve a Weight
// Memory region sized by the model's exact tile footprint, compile at that
// base and time one batch. On any failure the region is returned, so a
// failed compile never leaks Weight Memory.
func (s *Server) compile(d *Driver, p *program, m *nn.Model, params *nn.Params, in *tensor.F32) error {
	qm, err := nn.QuantizeModel(m, params, in)
	if err != nil {
		return fmt.Errorf("runtime: quantizing %s: %w", m.Name, err)
	}
	need := uint64(compiler.WeightFootprint(m, false))
	reg := region{base: s.reserveWeights(need), size: need}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse, WeightBase: reg.base})
	if err == nil && uint64(len(art.Program.WeightImage)) != need {
		err = fmt.Errorf("weight image %d bytes, reserved %d", len(art.Program.WeightImage), need)
	}
	if err != nil {
		s.releaseWeights(reg)
		return fmt.Errorf("runtime: compiling %s: %w", m.Name, err)
	}
	p.art = art
	p.qm = &nn.QuantizedModel{Model: qm.Model, Edge: qm.Edge}
	cycles := expectedCycles(d.cfg, art.Program)
	s.mu.Lock()
	p.cycles = cycles
	s.mu.Unlock()
	d.mu.Lock()
	d.compilations++
	d.mu.Unlock()
	return nil
}

// expectedCycles runs the program once on a hook-free, timing-only device
// and returns the timing model's cycle count — what a healthy device should
// take for one batch. The resilience layer multiplies it into per-attempt
// timeouts, so injected hangs and stragglers are detected relative to the
// model's real cost rather than a fleet-wide constant.
func expectedCycles(cfg tpu.Config, p *isa.Program) int64 {
	cfg.Functional = false
	cfg.Hook = nil
	cfg.Trace = false
	dev, err := tpu.New(cfg)
	if err != nil {
		return 0
	}
	c, err := dev.Run(p, nil)
	if err != nil {
		return 0
	}
	return c.Cycles
}

// resident returns the device's slot for m, loading the model on first use.
func (d *Driver) resident(ctx context.Context, m *nn.Model, params *nn.Params, in *tensor.F32) (sl *slot, cached bool, err error) {
	d.mu.Lock()
	sl, cached = d.slots[m.Name]
	if !cached {
		sl = &slot{runSem: make(chan struct{}, 1)}
		d.slots[m.Name] = sl
	}
	d.mu.Unlock()
	sl.once.Do(func() { sl.err = d.load(ctx, sl, m, params, in) })
	if sl.err != nil {
		// Drop the poisoned slot so a later evaluation can retry.
		d.mu.Lock()
		if d.slots[m.Name] == sl {
			delete(d.slots, m.Name)
		}
		d.mu.Unlock()
		return nil, false, sl.err
	}
	return sl, cached, nil
}

// load is the device's slow path for a model: take the server's program,
// compiling it if this is the server's first batch of the model, and create
// the device that runs it. The caller that wins the load race donates its
// trace context, so the span lands in the request that actually paid.
func (d *Driver) load(ctx context.Context, sl *slot, m *nn.Model, params *nn.Params, in *tensor.F32) (err error) {
	if obs.FromContext(ctx) != nil {
		_, sp := obs.Start(ctx, "compile", d.label, obs.String("model", m.Name))
		defer func() {
			if err != nil {
				sp.SetAttr(obs.String("error", err.Error()))
			} else {
				sp.SetAttr(obs.Int64("weight_bytes", int64(len(sl.p.art.Program.WeightImage))),
					obs.Int("instructions", len(sl.p.art.Program.Instructions)))
			}
			sp.End()
		}()
	}
	if d.inj != nil {
		if err := d.inj.CompileErr(); err != nil {
			return fmt.Errorf("runtime: compiling %s: %w", m.Name, err)
		}
	}
	p, err := d.srv.program(d, m, params, in)
	if err != nil {
		return err
	}
	dev, err := tpu.New(d.cfg)
	if err != nil {
		return err
	}
	sl.p, sl.dev = p, dev
	d.mu.Lock()
	sl.loaded = true
	d.mu.Unlock()
	return nil
}

// RunCtx evaluates one batch of a model on the driver's device. The first
// evaluation loads the server's program (the slow path); later evaluations
// reuse it. Runs of the same model serialize on its device while different
// models proceed in parallel.
//
// When ctx carries a recording obs span, the driver emits a compile span
// for the slow path and a run span for device execution, and — when the
// device was created with Config.Trace — stitches the run's cycle-domain
// unit-occupancy events into the run span as wall-clock child spans (cycle
// 0 anchored at the run's start, scaled so the cycle timeline tiles the
// wall-clock run exactly). With no span in ctx the cost is one context
// lookup.
func (d *Driver) RunCtx(ctx context.Context, m *nn.Model, params *nn.Params, in *tensor.F32) (res *InferenceResult, err error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sl, cached, err := d.resident(ctx, m, params, in)
	if err != nil {
		return nil, err
	}
	art, qm := sl.p.art, sl.p.qm

	var rsp *obs.Span
	if obs.FromContext(ctx) != nil {
		_, rsp = obs.Start(ctx, "run", d.label,
			obs.String("model", m.Name), obs.Int("batch", art.Layout.Batch))
		defer func() {
			if err != nil {
				rsp.SetAttr(obs.String("error", err.Error()))
			} else {
				rsp.SetAttr(obs.Int64("cycles", res.Counters.Cycles),
					obs.Float("device_seconds", res.DeviceSeconds),
					obs.Float("clock_mhz", d.cfg.ClockMHz))
			}
			rsp.End()
		}()
	}
	if err := sl.acquire(ctx); err != nil {
		return nil, err
	}
	// Quantize and pack inside the semaphore region so the slot's scratch
	// buffers (qin, host, qout) can be reused batch after batch: the
	// semaphore already serializes the device per model, and these stages
	// cost microseconds against a multi-millisecond device run.
	sl.qin = qm.QuantizeInputInto(in, sl.qin)
	host, err := compiler.PackInputInto(art, sl.qin, sl.host)
	if err != nil {
		sl.release()
		return nil, err
	}
	sl.host = host
	wallStart := time.Now()
	c, err := sl.dev.RunCtx(ctx, art.Program, host)
	var devSpans []obs.SpanData
	if err == nil && rsp.Recording() && d.cfg.Trace && c.Cycles > 0 {
		// Stitch the cycle-domain device timeline into the wall-clock run
		// span: cycle 0 at the run's start, scaled so total cycles span
		// the wall duration (reading the trace still recovers true device
		// time from the cycle_* attrs and the clock).
		devSpans = tpu.TraceSpans(sl.dev.Trace(), tpu.SpanMapping{
			Base:            wallStart,
			SecondsPerCycle: time.Since(wallStart).Seconds() / float64(c.Cycles),
			Track:           d.label,
			Trace:           rsp.TraceID(),
			Parent:          rsp.ID(),
			NextID:          rsp.Tracer().NextID,
			MaxEvents:       maxDeviceSpans,
		})
	}
	// Unpack and dequantize before releasing the semaphore: host and qout
	// are slot scratch, overwritten the moment the next run acquires the
	// device. The dequantized output is freshly allocated — it escapes to
	// the caller with the result.
	var output *tensor.F32
	if err == nil {
		var qout *tensor.I8
		if qout, err = compiler.UnpackOutputInto(art, host, sl.qout); err == nil {
			sl.qout = qout
			output = qm.DequantizeOutput(qout)
		}
	}
	sl.release()
	for _, sd := range devSpans {
		rsp.Tracer().Emit(sd)
	}
	if err != nil {
		return nil, fmt.Errorf("runtime: running %s: %w", m.Name, err)
	}
	return &InferenceResult{
		Output:        output,
		Counters:      c,
		DeviceSeconds: c.Seconds(d.cfg.ClockMHz),
		Cached:        cached,
	}, nil
}

// probeProgram is the health probe: the cheapest valid program (a Nop and a
// Halt). It exercises the full run path — including the fault hook, so a
// dead or hung device fails its probes — without touching model state.
var probeProgram = &isa.Program{
	Name:         "health-probe",
	Instructions: []isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpHalt}},
}

// Probe runs the trivial health-probe program on a fresh timing-only device
// built from the driver's config (fault hook included). A healthy device
// answers in microseconds; a dead one fails and a hung one stalls until ctx
// expires. The quarantine loop uses it to decide re-admission.
func (d *Driver) Probe(ctx context.Context) error {
	cfg := d.cfg
	cfg.Functional = false
	cfg.Trace = false
	dev, err := tpu.New(cfg)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() {
		_, err := dev.RunCtx(ctx, probeProgram, nil)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ExpectedCycles returns the timing model's cycle count for one batch of a
// compiled model, or 0 when the model has not compiled on this server yet.
func (s *Server) ExpectedCycles(modelName string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.programs[modelName]; p != nil {
		return p.cycles
	}
	return 0
}

// Server is one datacenter server: a host plus several TPUs behind it (4
// in the benchmarked configuration), dispatching batches round robin. Built
// with a fault plan and a Resilience policy (NewServerWith), it adds the
// fleet-management layer: per-device health states, per-attempt timeouts,
// retries with failover and hedged requests.
type Server struct {
	drivers []*Driver
	// mu guards next, the telemetry sinks, the resilience counters, programs
	// and the Weight Memory allocator.
	mu   sync.Mutex
	next int
	// programs is the compile cache, one single-flight program per model
	// name; every device that runs the model loads that program.
	programs map[string]*program
	// weightNext is the next free tile-aligned Weight Memory offset; each
	// compiled model gets its own region, at the same base on every device,
	// so many stay resident at once ("8 GiB supports many simultaneously
	// active models"). weightFree holds regions returned by failed
	// compiles, reused first-fit so a compile failure never leaks Weight
	// Memory.
	weightNext uint64
	weightFree []region

	// res is the recovery policy; nil keeps the raw dispatch path (no
	// retries, no failover), which still records every outcome.
	res   *Resilience
	stats ResilienceStats

	tracer *obs.Tracer
	logger *slog.Logger

	closed    chan struct{}
	closeOnce sync.Once

	// Wall-latency learning for timeouts and hedging: a server-wide
	// seconds-per-cycle EWMA (cold-start estimate for never-run models) and
	// a per-model wall-latency window (EWMA + approximate p99).
	wallMu       sync.Mutex
	wallPerCycle float64
	modelWall    map[string]*wallStats
}

// ServerOptions configures the fault-tolerance layer of a server.
type ServerOptions struct {
	// Faults installs a chaos plan: each device gets its own seeded
	// injector wired into the device's run hook. nil injects nothing.
	Faults *fault.Plan
	// Resilience enables the recovery machinery (health states, retries,
	// failover, hedging). nil keeps the raw dispatch path.
	Resilience *Resilience
}

// NewServer builds a server with n TPUs and no fault layer.
func NewServer(n int, cfg tpu.Config) (*Server, error) {
	return NewServerWith(n, cfg, ServerOptions{})
}

// NewServerWith builds a server with n TPUs, optionally injecting faults
// and/or enabling the resilience layer. Functional execution is forced on
// because the server's purpose is to run real data.
func NewServerWith(n int, cfg tpu.Config, opts ServerOptions) (*Server, error) {
	if n <= 0 {
		return nil, fmt.Errorf("runtime: server needs at least one TPU, got %d", n)
	}
	if _, err := tpu.New(cfg); err != nil {
		return nil, err
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	cfg.Functional = true
	s := &Server{
		programs:  map[string]*program{},
		res:       opts.Resilience,
		closed:    make(chan struct{}),
		logger:    slog.Default(),
		modelWall: map[string]*wallStats{},
	}
	for i := 0; i < n; i++ {
		d := &Driver{srv: s, cfg: cfg, label: fmt.Sprintf("tpu%d", i), slots: map[string]*slot{}}
		if opts.Resilience != nil {
			// The fleet integrity tier builds every device with the
			// corresponding on-device machinery.
			d.cfg.Integrity = opts.Resilience.Integrity
		}
		if opts.Faults != nil {
			d.inj = opts.Faults.Injector(i)
			d.cfg.Hook = d.inj.ArmedHook()
		}
		s.drivers = append(s.drivers, d)
	}
	return s, nil
}

// Observe points the server's health transitions and resilience events at a
// tracer and logger. Either may be nil.
func (s *Server) Observe(tracer *obs.Tracer, logger *slog.Logger) {
	s.mu.Lock()
	s.tracer = tracer
	if logger != nil {
		s.logger = logger
	}
	s.mu.Unlock()
}

// sinks returns the tracer and logger Observe installed: the one read of
// them behind every log line and span the server emits outside a request.
func (s *Server) sinks() (*obs.Tracer, *slog.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tracer, s.logger
}

// Injectors returns the per-device fault injectors (entries are nil when the
// server was built without a chaos plan). Chaos scripts use them to kill or
// throttle devices mid-load.
func (s *Server) Injectors() []*fault.Injector {
	injs := make([]*fault.Injector, len(s.drivers))
	for i, d := range s.drivers {
		injs[i] = d.inj
	}
	return injs
}

// Close stops background health probes. Safe to call more than once.
func (s *Server) Close() { s.closeOnce.Do(func() { close(s.closed) }) }

// Devices returns the TPU count.
func (s *Server) Devices() int { return len(s.drivers) }

// Run dispatches a batch to the next device round robin.
func (s *Server) Run(m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	return s.RunCtx(context.Background(), m, params, in)
}

// RunCtx is Run with request-scoped telemetry: a device-pick span records
// which TPU the round robin chose before delegating to the driver. With a
// Resilience policy installed the run goes through the full recovery path
// (health-aware pick, per-attempt timeout, retry/failover, hedging). The
// pick honours ctx: a cancelled request fails fast instead of consuming a
// device turn.
func (s *Server) RunCtx(ctx context.Context, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	return s.run(ctx, -1, m, params, in)
}

// RunOn dispatches a batch to a specific device. The serving layer pins
// each model to one TPU so its loaded program stays resident on that
// device's driver (maximizing the Section 2 cache behaviour); different
// models pinned to different devices run in parallel.
func (s *Server) RunOn(device int, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	return s.RunOnCtx(context.Background(), device, m, params, in)
}

// RunOnCtx is RunOn with request-scoped telemetry. With a Resilience policy
// the pinned device is only a preference: if it is quarantined or the
// attempt fails, the run fails over to another device.
func (s *Server) RunOnCtx(ctx context.Context, device int, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	if device < 0 || device >= len(s.drivers) {
		return nil, fmt.Errorf("runtime: device %d out of range [0, %d)", device, len(s.drivers))
	}
	return s.run(ctx, device, m, params, in)
}

// run is the one way in behind RunCtx, RunOnCtx and RunAll: the recovery
// path under a Resilience policy, else one dispatch to the pinned device
// (device -1: the next one round robin).
func (s *Server) run(ctx context.Context, device int, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.res != nil {
		return s.runResilient(ctx, device, m, params, in)
	}
	policy := "pinned"
	if device < 0 {
		device, policy = s.nextDevice(), "round-robin"
	}
	s.pickSpan(ctx, device, policy)
	return s.dispatch(ctx, device, 0, m, params, in)
}

// nextDevice advances the round-robin cursor and returns where it was.
func (s *Server) nextDevice() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.next
	s.next = (s.next + 1) % len(s.drivers)
	return i
}

// dispatch runs one batch on device dev, under an attempt timeout when
// timeout > 0, and folds the outcome into the device's record; every batch
// reaches a device through it. A request cancelled while its batch runs is
// not the device's fault and leaves the record untouched; an attempt that
// outlives its timeout is the device's fault.
func (s *Server) dispatch(ctx context.Context, dev int, timeout time.Duration, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	r, err := s.drivers[dev].RunCtx(actx, m, params, in)
	switch {
	case err == nil:
		r.WallSeconds = time.Since(start).Seconds()
		if s.res != nil {
			// Only the resilient path's timeouts and hedges read the
			// wall learner.
			s.observeWall(m.Name, r)
		}
		s.recordSuccess(dev)
	case ctx.Err() != nil:
		// The request itself was cancelled.
	case actx.Err() != nil && errors.Is(err, actx.Err()):
		err = fmt.Errorf("runtime: device %d attempt timed out after %v: %w", dev, timeout, err)
		s.count(func(c *ResilienceStats) { c.AttemptTimeouts++ })
		s.recordFailure(dev, err)
	default:
		s.recordFailure(dev, err)
	}
	return r, err
}

// pickSpan records an instantaneous device-pick span when ctx is traced.
func (s *Server) pickSpan(ctx context.Context, device int, policy string) {
	if obs.FromContext(ctx) == nil {
		return
	}
	_, sp := obs.Start(ctx, "device-pick", "runtime",
		obs.Int("device", device), obs.String("policy", policy))
	sp.End()
}

// Request is one inference batch for concurrent dispatch.
type Request struct {
	Model  *nn.Model
	Params *nn.Params
	Input  *tensor.F32
}

// RunAll dispatches the requests across the server's TPUs concurrently:
// one worker per device drains a striped share of the queue through
// RunOnCtx, so a 4-TPU server really runs four batches at once and each
// batch is recorded (and, under a Resilience policy, recovered) exactly like
// a RunOn. Results are returned in request order; the first error is
// reported after all workers finish.
func (s *Server) RunAll(reqs []Request) ([]*InferenceResult, error) {
	results := make([]*InferenceResult, len(reqs))
	errs := make([]error, len(s.drivers))
	var wg sync.WaitGroup
	for w := range s.drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(reqs); i += len(s.drivers) {
				r, err := s.RunOnCtx(context.Background(), w, reqs[i].Model, reqs[i].Params, reqs[i].Input)
				if err != nil {
					if errs[w] == nil {
						errs[w] = fmt.Errorf("runtime: request %d: %w", i, err)
					}
					continue
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
