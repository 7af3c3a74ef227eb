// Package runtime is the host-side software stack of Section 2: the User
// Space Driver that "sets up and controls TPU execution, reformats data
// into TPU order, translates API calls into TPU instructions ... compiles
// a model the first time it is evaluated, caching the program image and
// writing the weight image into the TPU's weight memory; the second and
// following evaluations run at full speed", plus the multi-device server
// abstraction (a server carries four TPUs).
//
// A model's int8 weights live once per server: after compile a driver keeps
// only the quantized model's input and output domains, and the program's
// weight image is the one copy the device reads. A server's drivers share
// byte-identical images (see weightImages), so its TPUs running one model
// hold its weights once; a standalone driver keeps its own.
//
// The driver is safe for concurrent use: first evaluations of a model are
// single-flighted (exactly one compilation per model, however many
// goroutines race in cold), Weight Memory regions are reserved atomically
// and returned to a free list on compile failure or Invalidate, and each
// cached model's device is serialized independently so different models
// evaluate in parallel on one driver.
package runtime

import (
	"context"
	"fmt"
	"log/slog"
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

// Driver is the User Space Driver: it owns a device per cached model and a
// compilation cache keyed by model name.
type Driver struct {
	cfg tpu.Config
	// label names the driver's device on telemetry tracks and in the
	// per-device Prometheus gauges ("tpu0".."tpu3" on a server).
	label string
	// inj is the driver's fault injector when the server was built with a
	// chaos plan; nil in production. The injector's Hook is already wired
	// into cfg — inj is kept only for the deterministic compile-failure
	// probe (CompileErr) and for chaos scripts reaching the injector.
	inj *fault.Injector

	mu    sync.Mutex
	cache map[string]*entry
	// ready lists entries whose compile succeeded, appended under mu at the
	// end of compile; the integrity scrubber and metrics aggregation walk it
	// without touching entries still mid-compile.
	ready []*entry
	// Lifetime per-device accounting behind the /metrics device gauges.
	runs          int64
	cycles        int64
	matrixActive  int64
	deviceSeconds float64
	// weightNext is the next free tile-aligned Weight Memory offset; each
	// compiled model gets its own region so many stay resident at once
	// ("8 GiB supports many simultaneously active models"). weightFree
	// holds regions returned by failed compiles and Invalidate, reused
	// first-fit so a compile failure never leaks Weight Memory.
	weightNext uint64
	weightFree []region
	// images is the server's weight-image table, nil on a standalone driver.
	images *weightImages
	// Compilations counts slow-path compiles (for observing the caching
	// behaviour the paper describes).
	Compilations int
}

// entry is one cached model. once single-flights the slow path: the first
// goroutine to evaluate the model compiles inside once.Do while every
// concurrent caller blocks on the same Do and then reuses the artifact.
// runSem serializes access to the entry's device (the functional simulator
// is stateful); distinct models run concurrently on their own devices.
// Unlike a mutex, the semaphore is context-aware: a caller whose context is
// cancelled while queued behind a long run returns ctx.Err() promptly
// instead of waiting its turn for a device it no longer wants.
type entry struct {
	once sync.Once
	err  error
	reg  region

	art *compiler.Artifact
	// qm is the quantized model's Model and Edge only: its layer weights
	// live in art's weight image alone.
	qm  *nn.QuantizedModel
	dev *tpu.Device
	// img is art's weight image's hold in the server's table (nil on a
	// standalone driver).
	img *sharedImage
	// cycles is the timing model's cycle count for one batch, for timeout
	// derivation; written under the driver's mu.
	cycles int64

	runSem chan struct{} // cap 1

	// Per-batch scratch — the quantized input, packed host buffer, and
	// unpacked quantized output — reused run after run. Guarded by runSem:
	// only the goroutine holding the semaphore may touch these, and every
	// read of them (unpack included) happens before release.
	qin  *tensor.I8
	host []int8
	qout *tensor.I8
}

// acquire takes the entry's device, or gives up when ctx is cancelled.
func (e *entry) acquire(ctx context.Context) error {
	select {
	case e.runSem <- struct{}{}:
		return nil
	default:
	}
	select {
	case e.runSem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *entry) release() { <-e.runSem }

// NewDriver creates a driver for devices with the given configuration;
// functional execution is forced on because the driver's purpose is to run
// real data.
func NewDriver(cfg tpu.Config) (*Driver, error) {
	cfg.Functional = true
	if _, err := tpu.New(cfg); err != nil {
		return nil, err
	}
	return &Driver{cfg: cfg, label: "tpu", cache: map[string]*entry{}}, nil
}

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
	// this result; the resilient path fills it in to feed the latency
	// learner behind timeouts and hedge delays. 0 on the raw path.
	WallSeconds float64
	// Device is the device index that produced the result (set by the
	// server's resilient path; 0 on a bare driver).
	Device int
	// Cached reports whether the compiled program image was reused.
	Cached bool
}

// reserveWeights returns a tile-aligned Weight Memory base for n bytes,
// reusing freed regions first-fit before extending the high-water mark.
func (d *Driver) reserveWeights(n uint64) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, r := range d.weightFree {
		if r.size >= n {
			if r.size == n {
				d.weightFree = append(d.weightFree[:i], d.weightFree[i+1:]...)
			} else {
				d.weightFree[i] = region{base: r.base + n, size: r.size - n}
			}
			return r.base
		}
	}
	base := d.weightNext
	d.weightNext += n
	return base
}

// releaseWeights returns a region to the allocator. The top-most region
// rolls the high-water mark back; interior regions go on the free list.
func (d *Driver) releaseWeights(r region) {
	if r.size == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if r.base+r.size == d.weightNext {
		d.weightNext = r.base
		return
	}
	d.weightFree = append(d.weightFree, r)
}

// compile is the single-flighted slow path: quantize, reserve a Weight
// Memory region sized by the model's exact tile footprint, compile at that
// base, create the model's device, and on a server trade the weight image
// for the table's copy. On any failure the region is
// returned, so a failed compile never leaks Weight Memory. The caller that
// wins the compile race donates its trace context, so the span lands in
// the request that actually paid for the compile.
func (d *Driver) compile(ctx context.Context, e *entry, m *nn.Model, params *nn.Params, in *tensor.F32) (err error) {
	if obs.FromContext(ctx) != nil {
		_, sp := obs.Start(ctx, "compile", d.label, obs.String("model", m.Name))
		defer func() {
			if err != nil {
				sp.SetAttr(obs.String("error", err.Error()))
			} else {
				sp.SetAttr(obs.Int64("weight_bytes", int64(e.reg.size)),
					obs.Int("instructions", len(e.art.Program.Instructions)))
			}
			sp.End()
		}()
	}
	if d.inj != nil {
		if err := d.inj.CompileErr(); err != nil {
			return fmt.Errorf("runtime: compiling %s: %w", m.Name, err)
		}
	}
	qm, err := nn.QuantizeModel(m, params, in)
	if err != nil {
		return fmt.Errorf("runtime: quantizing %s: %w", m.Name, err)
	}
	need := uint64(compiler.WeightFootprint(m, false))
	reg := region{base: d.reserveWeights(need), size: need}
	art, err := compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse, WeightBase: reg.base})
	if err != nil {
		d.releaseWeights(reg)
		return fmt.Errorf("runtime: compiling %s: %w", m.Name, err)
	}
	if got := uint64(len(art.Program.WeightImage)); got != need {
		d.releaseWeights(reg)
		return fmt.Errorf("runtime: %s weight image %d bytes, reserved %d", m.Name, got, need)
	}
	dev, err := tpu.New(d.cfg)
	if err != nil {
		d.releaseWeights(reg)
		return err
	}
	if d.images != nil {
		e.img = d.images.adopt(art.Program.WeightImage)
		art.Program.WeightImage = e.img.bytes
	}
	e.art, e.dev, e.reg = art, dev, reg
	e.qm = &nn.QuantizedModel{Model: qm.Model, Edge: qm.Edge}
	cycles := expectedCycles(d.cfg, art.Program)
	d.mu.Lock()
	e.cycles = cycles
	d.Compilations++
	d.ready = append(d.ready, e)
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

// Run evaluates one batch of a model. The first evaluation quantizes and
// compiles (the slow path); later evaluations reuse the cached program
// image and weight image. Safe for concurrent use: racing first
// evaluations compile exactly once, and runs of the same model serialize
// on its device while different models proceed in parallel.
func (d *Driver) Run(m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	return d.RunCtx(context.Background(), m, params, in)
}

// RunCtx is Run with request-scoped telemetry: when ctx carries a
// recording obs span, the driver emits a compile span for the slow path
// and a run span for device execution, and — when the device was created
// with Config.Trace — stitches the run's cycle-domain unit-occupancy
// events into the run span as wall-clock child spans (cycle 0 anchored at
// the run's start, scaled so the cycle timeline tiles the wall-clock run
// exactly). With no span in ctx the cost over Run is one context lookup.
func (d *Driver) RunCtx(ctx context.Context, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	e, ok := d.cache[m.Name]
	if !ok {
		e = &entry{runSem: make(chan struct{}, 1)}
		d.cache[m.Name] = e
	}
	d.mu.Unlock()
	cached := ok

	e.once.Do(func() { e.err = d.compile(ctx, e, m, params, in) })
	if e.err != nil {
		err := e.err
		// Drop the poisoned entry so a later evaluation can retry.
		d.mu.Lock()
		if d.cache[m.Name] == e {
			delete(d.cache, m.Name)
		}
		d.mu.Unlock()
		return nil, err
	}

	var rsp *obs.Span
	if obs.FromContext(ctx) != nil {
		_, rsp = obs.Start(ctx, "run", d.label,
			obs.String("model", m.Name), obs.Int("batch", e.art.Layout.Batch))
	}
	if err := e.acquire(ctx); err != nil {
		if rsp.Recording() {
			rsp.SetAttr(obs.String("error", err.Error()))
			rsp.End()
		}
		return nil, err
	}
	// Quantize and pack inside the semaphore region so the entry's scratch
	// buffers (qin, host, qout) can be reused batch after batch: the
	// semaphore already serializes the device per model, and these stages
	// cost microseconds against a multi-millisecond device run.
	e.qin = e.qm.QuantizeInputInto(in, e.qin)
	host, err := compiler.PackInputInto(e.art, e.qin, e.host)
	if err != nil {
		e.release()
		if rsp.Recording() {
			rsp.SetAttr(obs.String("error", err.Error()))
			rsp.End()
		}
		return nil, err
	}
	e.host = host
	wallStart := time.Now()
	c, err := e.dev.RunCtx(ctx, e.art.Program, host)
	var devSpans []obs.SpanData
	if err == nil && rsp.Recording() && d.cfg.Trace && c.Cycles > 0 {
		// Stitch the cycle-domain device timeline into the wall-clock run
		// span: cycle 0 at the run's start, scaled so total cycles span
		// the wall duration (reading the trace still recovers true device
		// time from the cycle_* attrs and the clock).
		devSpans = tpu.TraceSpans(e.dev.Trace(), tpu.SpanMapping{
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
	// are entry scratch, overwritten the moment the next run acquires the
	// device. The dequantized output is freshly allocated — it escapes to
	// the caller with the result.
	var output *tensor.F32
	var unpackErr error
	if err == nil {
		var qout *tensor.I8
		qout, unpackErr = compiler.UnpackOutputInto(e.art, host, e.qout)
		if unpackErr == nil {
			e.qout = qout
			output = e.qm.DequantizeOutput(qout)
		}
	}
	e.release()
	for _, sd := range devSpans {
		rsp.Tracer().Emit(sd)
	}
	if err != nil {
		if rsp.Recording() {
			rsp.SetAttr(obs.String("error", err.Error()))
			rsp.End()
		}
		return nil, fmt.Errorf("runtime: running %s: %w", m.Name, err)
	}
	devSeconds := c.Seconds(d.cfg.ClockMHz)
	if rsp.Recording() {
		rsp.SetAttr(obs.Int64("cycles", c.Cycles),
			obs.Float("device_seconds", devSeconds),
			obs.Float("clock_mhz", d.cfg.ClockMHz))
		rsp.End()
	}
	d.mu.Lock()
	d.runs++
	d.cycles += c.Cycles
	d.matrixActive += c.MatrixActive
	d.deviceSeconds += devSeconds
	d.mu.Unlock()
	if unpackErr != nil {
		return nil, unpackErr
	}
	return &InferenceResult{
		Output:        output,
		Counters:      c,
		DeviceSeconds: devSeconds,
		Cached:        cached,
	}, nil
}

// Invalidate drops a cached program (e.g. after retraining), returns its
// Weight Memory region to the allocator and releases its weight image; its
// ExpectedCycles reads 0 until it compiles again.
func (d *Driver) Invalidate(modelName string) {
	d.mu.Lock()
	e, ok := d.cache[modelName]
	if ok {
		delete(d.cache, modelName)
	}
	d.mu.Unlock()
	if !ok {
		return
	}
	// Resolve the entry's once: either the in-flight compile finishes (Do
	// blocks until then, making e.reg safe to read) or a never-compiled
	// entry is poisoned so racing waiters fail cleanly instead of using a
	// half-built artifact.
	e.once.Do(func() { e.err = fmt.Errorf("runtime: %s invalidated before first compile", modelName) })
	if e.err == nil {
		d.releaseWeights(e.reg)
		if e.img != nil {
			d.images.release(e.img)
		}
		d.mu.Lock()
		for i, re := range d.ready {
			if re == e {
				d.ready = append(d.ready[:i], d.ready[i+1:]...)
				break
			}
		}
		d.mu.Unlock()
	}
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
// cached model, or 0 when the model has not compiled on this driver yet.
func (d *Driver) ExpectedCycles(modelName string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.cache[modelName]; ok {
		return e.cycles
	}
	return 0
}

// Server is one datacenter server: a host plus several TPUs behind it (4
// in the benchmarked configuration), dispatching batches round robin. Built
// with a fault plan and a Resilience policy (NewServerWith), it adds the
// fleet-management layer: per-device health states, per-attempt timeouts,
// retries with failover, hedged requests and output cross-checking.
type Server struct {
	drivers []*Driver
	next    int
	mu      sync.Mutex
	// images holds one copy of each distinct weight image the drivers'
	// cached programs use.
	images *weightImages

	// Resilience state (nil res means the PR-3 fast path: no retries, no
	// health tracking overhead on the run path beyond a success record).
	res    *Resilience
	injs   []*fault.Injector
	health []*deviceHealth
	stats  resilienceCounters

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
	// failover, hedging, cross-check). nil keeps the raw dispatch path.
	Resilience *Resilience
}

// NewServer builds a server with n TPUs and no fault layer.
func NewServer(n int, cfg tpu.Config) (*Server, error) {
	return NewServerWith(n, cfg, ServerOptions{})
}

// NewServerWith builds a server with n TPUs, optionally injecting faults
// and/or enabling the resilience layer.
func NewServerWith(n int, cfg tpu.Config, opts ServerOptions) (*Server, error) {
	if n <= 0 {
		return nil, fmt.Errorf("runtime: server needs at least one TPU, got %d", n)
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	s := &Server{
		res:       opts.Resilience,
		closed:    make(chan struct{}),
		logger:    slog.Default(),
		modelWall: map[string]*wallStats{},
		images:    &weightImages{held: map[imageKey][]*sharedImage{}},
	}
	for i := 0; i < n; i++ {
		dcfg := cfg
		if opts.Resilience != nil {
			// The fleet integrity tier builds every device with the
			// corresponding on-device machinery.
			dcfg.Integrity = opts.Resilience.Integrity.deviceLevel()
		}
		var inj *fault.Injector
		if opts.Faults != nil {
			inj = opts.Faults.Injector(i)
			dcfg.Hook = inj.ArmedHook()
		}
		dr, err := NewDriver(dcfg)
		if err != nil {
			return nil, err
		}
		dr.label = fmt.Sprintf("tpu%d", i)
		dr.inj = inj
		dr.images = s.images
		s.drivers = append(s.drivers, dr)
		s.injs = append(s.injs, inj)
		s.health = append(s.health, &deviceHealth{})
	}
	if opts.Resilience != nil && opts.Resilience.ScrubEvery > 0 {
		go s.scrubLoop(opts.Resilience.ScrubEvery)
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

// Injectors returns the per-device fault injectors (entries are nil when the
// server was built without a chaos plan). Chaos scripts use them to kill or
// throttle devices mid-load.
func (s *Server) Injectors() []*fault.Injector { return s.injs }

// Close stops background health probes. Safe to call more than once.
func (s *Server) Close() { s.closeOnce.Do(func() { close(s.closed) }) }

// Devices returns the TPU count.
func (s *Server) Devices() int { return len(s.drivers) }

// WeightImageBytes returns the host bytes of weight image the server holds
// for its drivers' cached programs, an image shared by several devices
// counted once. The per-device figure is DriverStats.WeightImageBytes.
func (s *Server) WeightImageBytes() uint64 { return s.images.size() }

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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.res != nil {
		return s.runResilient(ctx, -1, m, params, in)
	}
	s.mu.Lock()
	i := s.next
	d := s.drivers[i]
	s.next = (s.next + 1) % len(s.drivers)
	s.mu.Unlock()
	s.pickSpan(ctx, i, "round-robin")
	r, err := d.RunCtx(ctx, m, params, in)
	s.recordOutcome(i, m.Name, r, err)
	return r, err
}

// RunOn dispatches a batch to a specific device. The serving layer pins
// each model to one TPU so its compiled program image and weight region
// stay resident on that device's driver (maximizing the Section 2 cache
// behaviour); different models pinned to different devices run in parallel.
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
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.res != nil {
		return s.runResilient(ctx, device, m, params, in)
	}
	s.pickSpan(ctx, device, "pinned")
	r, err := s.drivers[device].RunCtx(ctx, m, params, in)
	s.recordOutcome(device, m.Name, r, err)
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
// one worker per device drains a striped share of the queue, so a 4-TPU
// server really runs four batches at once. Results are returned in request
// order; the first error is reported after all workers finish.
func (s *Server) RunAll(reqs []Request) ([]*InferenceResult, error) {
	results := make([]*InferenceResult, len(reqs))
	errs := make([]error, len(s.drivers))
	var wg sync.WaitGroup
	for w, dr := range s.drivers {
		wg.Add(1)
		go func(w int, dr *Driver) {
			defer wg.Done()
			for i := w; i < len(reqs); i += len(s.drivers) {
				r, err := dr.Run(reqs[i].Model, reqs[i].Params, reqs[i].Input)
				if err != nil {
					if errs[w] == nil {
						errs[w] = fmt.Errorf("runtime: request %d: %w", i, err)
					}
					continue
				}
				results[i] = r
			}
		}(w, dr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
