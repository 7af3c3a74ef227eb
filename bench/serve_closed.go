package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/serve"
	"tpusim/internal/tensor"
)

// serveClosed drives the wall-clock serving stack the way interactive
// callers do: P closed-loop clients, each waiting for its reply, over
// serve.Server, serve.RuntimeBackend and one runtime device. The three
// phases follow the paper's datacenter mix (Table 1: MLPs 61%, LSTMs 29%,
// CNNs 5%) on the tiny functional models. It uses the same runtime, tpu and
// systolic stack as infer_batch the opposite way: tiny tiles, short
// batches, per-dispatch fixed costs.
var serveClosed = workload{
	name: "serve_closed",
	why:  "P closed-loop clients through serve.Server on tiny models in the Table 1 mix: per-request and per-dispatch overheads dominate, kernel arithmetic is small",
	prepare: func(o options) (*plan, error) {
		s := &serveInputs{clients: parallelism()}
		rng := rand.New(rand.NewSource(o.seed))
		for _, ph := range []struct {
			app      string
			requests int
		}{{"MLP0", 6000}, {"LSTM0", 3000}, {"CNN0", 1000}} {
			m, err := models.Tiny(ph.app)
			if err != nil {
				return nil, err
			}
			p := phase{app: ph.app, m: m, params: nn.InitRandom(m, rng.Int63(), 0.25), requests: ph.requests}
			if o.smoke {
				p.requests /= 100
			}
			for c := 0; c < s.clients; c++ {
				var ins []*tensor.F32
				for i := 0; i < 4; i++ {
					in := tensor.NewF32(1, m.InputElems())
					in.FillRandom(rng.Int63(), 1)
					ins = append(ins, in)
				}
				p.inputs = append(p.inputs, ins)
			}
			// Every client's first request repeats the warm-up input, whose
			// reference is known: the backend calibrates on the warm-up batch
			// (that request in row 0, zero padding below).
			for c := 1; c < s.clients; c++ {
				p.inputs[c][0] = p.inputs[0][0].Clone()
			}
			calib := tensor.NewF32(batchShape(m)...)
			copy(calib.Data, p.inputs[0][0].Data)
			want, err := reference(m, p.params, calib, calib)
			if err != nil {
				return nil, err
			}
			p.want = want.Data[:len(want.Data)/m.Batch]
			s.phases = append(s.phases, p)
		}
		return &plan{rep: s.rep, layers: s.layers}, nil
	},
}

// batchShape is the shape serve.RuntimeBackend stacks a model's requests
// into.
func batchShape(m *nn.Model) []int {
	if m.Class == nn.CNN && len(m.Layers) > 0 && m.Layers[0].Kind == nn.Conv {
		c := m.Layers[0].Conv
		return []int{m.Batch, c.H, c.W, c.Cin}
	}
	return []int{m.Batch, m.InputElems()}
}

type phase struct {
	app      string
	m        *nn.Model
	params   *nn.Params
	requests int
	inputs   [][]*tensor.F32 // per client
	want     []float32       // reference output row for inputs[c][0]
}

type serveInputs struct {
	clients int
	phases  []phase
	// Of the latest repetition, for the per-layer metrics.
	last struct {
		firstRun       time.Duration // warm-up requests: quantize, compile, weight load
		batchSum, reqs int64
		shed, expired  uint64
		backend        *tracedBackend
	}
}

// tracedBackend is the serve.Backend seam: it times every dispatch and
// records it as a child of each Submit span whose request rode in it.
type tracedBackend struct {
	inner serve.Backend
	tr    *tracer
	// parents maps a request's input tensor to its open Submit span; every
	// client owns its tensors and has one request outstanding.
	parents sync.Map
	mu      sync.Mutex
	runs    map[string]callStats
}

func (b *tracedBackend) Run(model string, inputs []*tensor.F32) ([]*tensor.F32, error) {
	start := time.Now()
	outs, err := b.inner.Run(model, inputs)
	end := time.Now()
	for _, in := range inputs {
		if parent, ok := b.parents.Load(in); ok {
			b.tr.record(parent.(int), "runtime", "backend."+model, start, end)
		}
	}
	b.mu.Lock()
	c := b.runs[model]
	c.Calls++
	c.Total += end.Sub(start)
	b.runs[model] = c
	b.mu.Unlock()
	return outs, err
}

func (s *serveInputs) rep(r *rep) {
	rts, err := runtime.NewServer(1, deviceConfig())
	if !r.check("runtime.NewServer", err) {
		return
	}
	defer rts.Close()
	backend := serve.NewRuntimeBackend(rts)
	var tb *tracedBackend
	srv := serve.NewServer(backend)
	if r.tr != nil {
		tb = &tracedBackend{inner: backend, tr: r.tr, runs: map[string]callStats{}}
		srv = serve.NewServer(tb)
	}
	defer srv.Close()
	// The latency model only sizes the queue: with a 10 s SLA nothing is
	// shed, and a batch dispatches as soon as every client has a request in.
	svc := latency.ServiceFunc(func(n int) (float64, error) { return 50e-6 + 10e-6*float64(n), nil })
	var firstRun time.Duration
	for _, ph := range s.phases {
		if !r.check("AddModel "+ph.app, backend.AddModel(ph.m, ph.params)) {
			return
		}
		_, err := srv.Register(ph.m.Name, serve.ModelConfig{
			Policy:  serve.Policy{MaxBatch: min(s.clients, ph.m.Batch), SLASeconds: 10, MaxWaitSeconds: 200e-6},
			Service: svc,
		})
		if !r.check("Register "+ph.app, err) {
			return
		}
		// Warm-up request: quantize, compile, weight load.
		t := time.Now()
		resp, err := srv.Submit(ph.m.Name, ph.inputs[0][0])
		firstRun += time.Since(t)
		if r.check("warm-up "+ph.app, err) {
			r.check("warm-up "+ph.app, sameOutput(resp.Output.Data, ph.want))
		}
	}

	r.begin()
	var total, batchSum int64
	for _, ph := range s.phases {
		var wg sync.WaitGroup
		lat := make([][]float64, s.clients)
		errs := make([]error, s.clients)
		batches := make([]int64, s.clients)
		for c := 0; c < s.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				n := ph.requests / s.clients
				lat[c] = make([]float64, 0, n)
				for i := 0; i < n; i++ {
					in := ph.inputs[c][i%len(ph.inputs[c])]
					sp := -1
					if tb != nil {
						sp = r.tr.begin(-1, c+1, "serve", "Submit")
						tb.parents.Store(in, sp)
					}
					t := time.Now()
					resp, err := srv.Submit(ph.m.Name, in)
					lat[c] = append(lat[c], time.Since(t).Seconds())
					if tb != nil {
						r.tr.finish(sp)
					}
					if err == nil && i == 0 {
						err = sameOutput(resp.Output.Data, ph.want)
					}
					if err != nil {
						errs[c] = fmt.Errorf("client %d request %d: %w", c, i, err)
						return
					}
					batches[c] += int64(resp.BatchSize)
				}
			}(c)
		}
		wg.Wait()
		for c := 0; c < s.clients; c++ {
			r.check(ph.app, errs[c])
			r.latencies = append(r.latencies, lat[c]...)
			total += int64(len(lat[c]))
			batchSum += batches[c]
		}
	}
	r.end(total)

	s.last.firstRun, s.last.batchSum, s.last.reqs, s.last.backend = firstRun, batchSum, total, tb
	s.last.shed, s.last.expired = 0, 0
	for _, ms := range srv.Metrics().Snapshot().Models {
		s.last.shed += ms.ShedQueue + ms.ShedBrownout + ms.ShedBreaker
		s.last.expired += ms.Expired
		if ms.Errored > 0 {
			r.failf("%s: %d requests errored", ms.Model, ms.Errored)
		}
	}
	for _, ph := range s.phases {
		r.stat("requests."+ph.app, ph.requests/s.clients*s.clients)
		r.stat("reference."+ph.app, ph.want)
	}
}

func (s *serveInputs) layers(l *layerRun) {
	l.set("serve.req_p50_us", quantile(l.plain.latencies, 0.5)*1e6)
	l.set("serve.req_p99_us", quantile(l.plain.latencies, 0.99)*1e6)
	submit := l.calls["serve.Submit"]
	if submit.Calls > 0 {
		l.set("serve.submit_self_us", micros(submit.Self)/float64(submit.Calls))
	}
	l.set("serve.mean_batch", float64(s.last.batchSum)/float64(max(s.last.reqs, 1)))
	l.set("serve.shed", float64(s.last.shed))
	l.set("serve.expired", float64(s.last.expired))
	l.set("runtime.first_run_ms", millis(s.last.firstRun)/float64(len(s.phases)))
	for _, ph := range s.phases {
		l.set("runtime.backend_run_us."+ph.app, s.last.backend.runs[ph.m.Name].meanMicros())
	}

	// Probe: the serve layer's own round trip, over a backend that does
	// nothing, one client, one request per batch.
	sim := serve.NewSimBackend(0)
	svc := latency.ServiceFunc(func(int) (float64, error) { return 1e-4, nil })
	sim.AddModel("m", svc)
	srv := serve.NewServer(sim)
	defer srv.Close()
	_, err := srv.Register("m", serve.ModelConfig{Policy: serve.Policy{MaxBatch: 1, SLASeconds: 1}, Service: svc})
	if l.traced.check("probe Register", err) {
		in := tensor.NewF32(1, 4)
		const n = 2000
		l.set("serve.sim_backend_rtt_us", probeNanos(5, n, func() {
			for i := 0; i < n; i++ {
				_, err := srv.Submit("m", in)
				l.traced.check("probe Submit", err)
			}
		})/1e3)
	}

	// Probe: one runtime dispatch of a full tiny batch, without serve.
	ph := s.phases[0]
	rts, err := runtime.NewServer(1, deviceConfig())
	if !l.traced.check("probe runtime.NewServer", err) {
		return
	}
	defer rts.Close()
	batch := tensor.NewF32(batchShape(ph.m)...)
	batch.FillRandom(1, 1)
	var res *runtime.InferenceResult
	runOn := func() {
		res, err = rts.RunOn(0, ph.m, ph.params, batch)
		l.traced.check("probe RunOn", err)
	}
	runOn() // compiles
	if res == nil {
		return
	}
	const n = 200
	l.set("runtime.run_on_us.tiny", probeNanos(5, n, func() {
		for i := 0; i < n; i++ {
			runOn()
		}
	})/1e3)
	l.set("runtime.device_seconds_per_batch", res.DeviceSeconds)
	_, packMicros := probeKernel(ph.m.Batch)
	l.set("systolic.tile_pack_us", packMicros)
}
