// Chaos harness: a wall-clock load sweep over a fault-injected TPU fleet.
// It serves the paper's six benchmark apps (tiny functional variants) from
// a deadline-aware serving layer backed by a multi-device runtime, kills
// and throttles devices mid-stream, and reports per-app error rates and
// p99 latencies against a healthy baseline of the same workload. This is
// the robustness counterpart of the Table 4 load sweep: the claim under
// test is that the health state machine, retry/failover, hedging and
// circuit-breaker layers hold the tail together while hardware misbehaves.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"time"

	"tpusim/internal/fault"
	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/serve"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// ChaosConfig configures one chaos sweep. The zero value is normalized to
// a 4-device fleet serving all six apps at 75% load for about a second.
type ChaosConfig struct {
	// Devices is the fleet size. 0 means 4.
	Devices int
	// Duration is the target wall length of each pass's arrival stream.
	// 0 means 1 second.
	Duration time.Duration
	// LoadFrac is the offered load as a fraction of each app's measured
	// device-share capacity. 0 means 0.75.
	LoadFrac float64
	// Seed drives arrival processes and weight init.
	Seed int64

	// Plan is the background fault plan for the chaotic pass (the baseline
	// pass always runs fault-free). Its seed pins the injected sequence.
	Plan fault.Plan
	// Kill lists devices hard-killed at FaultAt through the stream.
	Kill []int
	// Slow lists devices throttled by SlowFactor at FaultAt.
	Slow []int
	// SlowFactor is the mid-run throttle multiplier. 0 means 8.
	SlowFactor float64
	// FaultAt is the fraction of the stream (Duration, or the shortest
	// app stream when the request cap clamps one below it) at which
	// Kill/Slow strike; it must be below 1. 0 means 0.3.
	FaultAt float64
}

// The chaos sweep's fixed serving envelope. Each app's stream is clamped to
// [chaosMinRequests, chaosMaxRequests] requests, and every request gets a
// chaosSLASeconds deadline: wall-clock chaos runs need slack for retries,
// so this is a generous envelope, not the paper's 7 ms virtual-time bound.
// Every model runs behind the circuit breaker, on a fleet whose recovery
// policy is tuned for wall-clock chaos (see RunChaos).
const (
	chaosMinRequests = 16
	chaosMaxRequests = 240
	chaosSLASeconds  = 0.5
)

func (c ChaosConfig) normalized() ChaosConfig {
	if c.Devices == 0 {
		c.Devices = 4
	}
	if c.Duration == 0 {
		c.Duration = time.Second
	}
	if c.LoadFrac == 0 {
		c.LoadFrac = 0.75
	}
	if c.SlowFactor == 0 {
		c.SlowFactor = 8
	}
	if c.FaultAt == 0 {
		c.FaultAt = 0.3
	}
	return c
}

// ChaosApp is one app's outcome in one pass.
type ChaosApp struct {
	App    string
	Device int
	// Rate is the offered arrival rate (requests/s); Requests is the
	// stream length.
	Rate     float64
	Requests int
	// Admission ledger from the serving layer.
	Completed, Errored, Shed uint64
	// P99Ms is the served requests' p99 latency.
	P99Ms float64
}

// ChaosPass is one full pass (baseline or chaotic) over every app.
type ChaosPass struct {
	Apps         []ChaosApp
	Stats        runtime.ResilienceStats
	Health       []runtime.DriverStats
	FaultSummary string
}

// ChaosResult pairs the healthy baseline with the chaotic pass.
type ChaosResult struct {
	Config   ChaosConfig
	Baseline ChaosPass
	Chaos    ChaosPass
}

// RunChaos runs the sweep over the six apps twice — once fault-free for the
// baseline, once under the plan with mid-stream kills/throttles — over
// fresh fleets.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	cfg = cfg.normalized()
	for _, f := range []struct {
		name string
		v    float64
	}{{"LoadFrac", cfg.LoadFrac}, {"SlowFactor", cfg.SlowFactor}, {"FaultAt", cfg.FaultAt}} {
		if !(f.v > 0 && f.v <= math.MaxFloat64) { // NaN fails every comparison
			return nil, fmt.Errorf("experiments: chaos %s is %v, want a positive finite number", f.name, f.v)
		}
	}
	if cfg.FaultAt >= 1 {
		return nil, fmt.Errorf("experiments: chaos FaultAt is %v, want a fraction of the stream below 1", cfg.FaultAt)
	}
	if cfg.Duration < 0 {
		return nil, fmt.Errorf("experiments: chaos Duration is %v, want a non-negative length", cfg.Duration)
	}
	// The fleets recover with tight attempt timeouts (3x expected) and
	// aggressive hedging (1x observed p99), and check their data: a flip the
	// plan injects fails its attempt with an SDC error, which the fleet
	// retries, instead of shipping a wrong answer. Both passes run the
	// checks, so the comparison is like for like.
	apps := models.Names()
	res := runtime.Resilience{MaxAttempts: 4, TimeoutFactor: 3, HedgeAfterP99: 1, Integrity: tpu.IntegrityDetect}
	base, err := chaosPass(cfg, apps, res, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos baseline: %w", err)
	}
	chaos, err := chaosPass(cfg, apps, res, true)
	if err != nil {
		return nil, fmt.Errorf("experiments: chaos pass: %w", err)
	}
	return &ChaosResult{Config: cfg, Baseline: *base, Chaos: *chaos}, nil
}

// chaosApp is one app's serving setup inside a pass.
type chaosApp struct {
	name   string
	m      *nn.Model
	params *nn.Params
	dev    int
	rows   []*tensor.F32
	batch  *tensor.F32 // warmup input: rows stacked to the compiled batch
	svcSec float64     // measured wall seconds per full batch
	rate   float64
	n      int
}

// chaosPass serves names (tiny variants) on a fresh fleet recovering under
// res, with cfg's faults when chaotic.
func chaosPass(cfg ChaosConfig, names []string, res runtime.Resilience, chaotic bool) (*ChaosPass, error) {
	for _, d := range append(append([]int{}, cfg.Kill...), cfg.Slow...) {
		if d < 0 || d >= cfg.Devices {
			return nil, fmt.Errorf("device %d outside fleet of %d", d, cfg.Devices)
		}
	}
	opts := runtime.ServerOptions{Resilience: &res}
	if chaotic {
		plan := cfg.Plan
		opts.Faults = &plan
	}
	rs, err := runtime.NewServerWith(cfg.Devices, tpu.DefaultConfig(), opts)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	backend := serve.NewRuntimeBackend(rs)

	// Build the apps: tiny functional models, pinned round robin (the same
	// order AddModel uses), inputs reused across requests.
	apps := make([]*chaosApp, len(names))
	for i, name := range names {
		m, err := models.Tiny(name)
		if err != nil {
			return nil, err
		}
		a := &chaosApp{name: name, m: m, dev: i % cfg.Devices}
		a.params = nn.InitRandom(m, cfg.Seed+int64(i)+1, 0.25)
		if err := backend.AddModel(m, a.params); err != nil {
			return nil, err
		}
		a.rows = make([]*tensor.F32, m.Batch)
		rowIn := m.InputElems()
		a.batch = tensor.NewF32(m.BatchInputShape()...)
		for j := range a.rows {
			r := tensor.NewF32(1, rowIn)
			r.FillRandom(cfg.Seed*100+int64(i*16+j), 1)
			a.rows[j] = r
			copy(a.batch.Data[j*rowIn:(j+1)*rowIn], r.Data)
		}
		apps[i] = a
	}

	// Warm every model on every device (fleets pre-load programs; this also
	// keeps a mid-run failover from paying a compile in its latency), then
	// measure each app's hot batch time on its pinned device. Measuring
	// here — after compilation, under the current host conditions — makes
	// the offered rates self-calibrating: a slower host just gets a slower
	// sweep, not an overloaded one.
	ctx := context.Background()
	for _, a := range apps {
		for d := 0; d < cfg.Devices; d++ {
			if _, err := rs.RunOnCtx(ctx, d, a.m, a.params, a.batch); err != nil {
				return nil, fmt.Errorf("warming %s on device %d: %w", a.m.Name, d, err)
			}
		}
		start := time.Now()
		if _, err := rs.RunOnCtx(ctx, a.dev, a.m, a.params, a.batch); err != nil {
			return nil, err
		}
		a.svcSec = time.Since(start).Seconds()
	}

	// Offered rate: LoadFrac of the app's share of its pinned device
	// (batch/svc capacity split among the apps pinned there). The devices
	// are simulated on the host's cores, so when the fleet is wider than
	// the host, aggregate demand is scaled down to keep the *host* at
	// LoadFrac utilization — otherwise every "75% load" sweep on a small
	// machine is really a 300% overload test of the scheduler.
	share := make([]int, cfg.Devices)
	for _, a := range apps {
		share[a.dev]++
	}
	hostScale := 1.0
	if cores := goruntime.NumCPU(); cfg.Devices > cores {
		hostScale = float64(cores) / float64(cfg.Devices)
	}
	for _, a := range apps {
		a.rate = cfg.LoadFrac * hostScale * float64(a.m.Batch) / a.svcSec / float64(share[a.dev])
		a.n = min(max(int(a.rate*cfg.Duration.Seconds()), chaosMinRequests), chaosMaxRequests)
	}

	srv := serve.NewServer(backend)
	defer srv.Close()
	for _, a := range apps {
		svc := a.svcSec
		_, err := srv.Register(a.m.Name, serve.ModelConfig{
			Policy: serve.Policy{
				MaxBatch:       a.m.Batch,
				SLASeconds:     chaosSLASeconds,
				MaxWaitSeconds: svc,
			},
			Service: latency.ServiceFunc(func(int) (float64, error) { return svc, nil }),
			Breaker: true,
		})
		if err != nil {
			return nil, err
		}
	}

	// Mid-stream chaos: kill and throttle on a wall-clock trigger, FaultAt
	// of the way through the shortest stream — one clamped at chaosMaxRequests
	// ends before Duration, and on a fast host before FaultAt*Duration, so a
	// trigger timed from Duration alone would strike after the traffic.
	var faultTimer *time.Timer
	if chaotic && (len(cfg.Kill) > 0 || len(cfg.Slow) > 0) {
		injs := rs.Injectors()
		stream := cfg.Duration.Seconds()
		for _, a := range apps {
			stream = min(stream, float64(a.n)/a.rate)
		}
		faultTimer = time.AfterFunc(
			time.Duration(cfg.FaultAt*stream*float64(time.Second)), func() {
				for _, d := range cfg.Kill {
					injs[d].Kill()
				}
				for _, d := range cfg.Slow {
					injs[d].SetStaticSlow(cfg.SlowFactor)
				}
			})
		defer faultTimer.Stop()
	}

	// Open-loop Poisson arrivals per app; every request is a goroutine so a
	// stalled request never blocks the arrival process.
	var wg sync.WaitGroup
	for i, a := range apps {
		wg.Add(1)
		go func(i int, a *chaosApp) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*7919 + int64(i)))
			var reqs sync.WaitGroup
			for j := 0; j < a.n; j++ {
				time.Sleep(time.Duration(rng.ExpFloat64() / a.rate * float64(time.Second)))
				reqs.Add(1)
				go func(j int) {
					defer reqs.Done()
					// Outcomes land in the serving metrics; errors here are
					// expected under chaos.
					srv.Submit(a.m.Name, a.rows[j%len(a.rows)]) //nolint:errcheck
				}(j)
			}
			reqs.Wait()
		}(i, a)
	}
	wg.Wait()
	srv.Close()
	rs.Close()

	pass := &ChaosPass{Stats: rs.ResilienceStats(), Health: rs.Stats()}
	if chaotic {
		pass.FaultSummary = fault.Summary(rs.Injectors())
	}
	snap := srv.Metrics().Snapshot()
	byName := map[string]serve.ModelSnapshot{}
	for _, s := range snap.Models {
		byName[s.Model] = s
	}
	for _, a := range apps {
		s := byName[a.m.Name]
		pass.Apps = append(pass.Apps, ChaosApp{
			App: a.name, Device: a.dev, Rate: a.rate, Requests: a.n,
			Completed: s.Completed, Errored: s.Errored,
			Shed:  s.ShedQueue + s.ShedBrownout + s.ShedBreaker + s.Expired,
			P99Ms: s.P99Ms,
		})
	}
	return pass, nil
}

// RenderChaos formats a chaos result: per-app baseline vs chaos, the
// resilience counters, final device health and the injected-fault log.
func RenderChaos(r *ChaosResult) string {
	var b strings.Builder
	cfg := r.Config
	fmt.Fprintf(&b, "Chaos sweep: %d devices, %.0f%% load, fault at %.0f%% of stream",
		cfg.Devices, cfg.LoadFrac*100, cfg.FaultAt*100)
	if len(cfg.Kill) > 0 {
		fmt.Fprintf(&b, ", kill %v", cfg.Kill)
	}
	if len(cfg.Slow) > 0 {
		fmt.Fprintf(&b, ", slow %v x%.0f", cfg.Slow, cfg.SlowFactor)
	}
	fmt.Fprintf(&b, "\nplan: %s\n\n", cfg.Plan.String())
	fmt.Fprintf(&b, "%-6s %3s %5s %9s %9s %6s %5s %10s %10s %7s\n",
		"app", "dev", "reqs", "offered/s", "completed", "errs", "shed", "base p99", "chaos p99", "ratio")
	for i, c := range r.Chaos.Apps {
		base := r.Baseline.Apps[i]
		ratio := 0.0
		if base.P99Ms > 0 {
			ratio = c.P99Ms / base.P99Ms
		}
		fmt.Fprintf(&b, "%-6s %3d %5d %9.0f %9d %6d %5d %8.2fms %8.2fms %6.2fx\n",
			c.App, c.Device, c.Requests, c.Rate, c.Completed, c.Errored, c.Shed,
			base.P99Ms, c.P99Ms, ratio)
	}
	st := r.Chaos.Stats
	fmt.Fprintf(&b, "\nresilience: retries %d, failovers %d, hedges %d (wins %d), attempt timeouts %d, sdc failures %d\n",
		st.Retries, st.Failovers, st.Hedges, st.HedgeWins, st.AttemptTimeouts, st.SDCFailures)
	for _, h := range r.Chaos.Health {
		fmt.Fprintf(&b, "%s: %s (failures %d, successes %d, probes %d", h.Device, h.State, h.Failures, h.Runs, h.Probes)
		if h.LastError != "" {
			fmt.Fprintf(&b, ", last error %q", h.LastError)
		}
		b.WriteString(")\n")
	}
	if r.Chaos.FaultSummary != "" {
		b.WriteString("injected faults:\n")
		b.WriteString(r.Chaos.FaultSummary)
	}
	return b.String()
}
