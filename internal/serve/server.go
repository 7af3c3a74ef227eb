package serve

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tpusim/internal/latency"
	"tpusim/internal/obs"
	"tpusim/internal/tensor"
)

// ModelConfig registers one model with the server.
type ModelConfig struct {
	// Policy is the deadline-aware batching policy for this model.
	Policy Policy
	// Service is the latency model that sizes the deadline-safe batch and
	// drives shed-at-dispatch decisions. For the TPU this is the analytic
	// batch-time model of experiments.TPUBatchSeconds. The dispatcher
	// prices batches under the lane's lock, so BatchSeconds must return
	// promptly and never call back into the Server.
	Service latency.ServiceModel
	// Breaker enables the model's circuit breaker and brownout policy
	// (see breaker.go); false serves without one.
	Breaker bool
}

// Response is one served request's outcome.
type Response struct {
	// Output is the backend's per-request output.
	Output *tensor.F32
	// BatchSize is how many requests rode in the same dispatch.
	BatchSize int
}

// Server is the wall-clock serving front end: per-model lanes, each a
// latency.Lane on the wall clock and a dispatcher goroutine that takes
// deadline-safe batches from it and executes them on the Backend.
type Server struct {
	backend Backend
	metrics *Metrics

	// Telemetry (set via Observe before Register; both may stay nil).
	tracer *obs.Tracer
	logger *slog.Logger
	reqSeq atomic.Uint64

	mu     sync.Mutex
	lanes  map[string]*lane
	closed bool
	wg     sync.WaitGroup
}

// lane is one model's batching lane plus its dispatcher's state.
type lane struct {
	model string
	plan  Plan
	sm    latency.ServiceModel
	mm    *ModelMetrics
	// Telemetry track names, precomputed so the per-request fast path does
	// no string concatenation: request/queue spans render on reqTrack, the
	// dispatcher's fill-wait/dispatch spans on laneTrack.
	reqTrack, laneTrack string

	// br is the lane's circuit breaker; nil when the model registered
	// without one (all breaker methods are nil-safe).
	br *breaker

	// epoch is the lane's clock zero: arrivals and the dispatcher's now are
	// seconds since it. wake (capacity 1) is how Submit and Close rouse a
	// sleeping dispatcher; a token left over only costs it one more look.
	epoch time.Time
	wake  chan struct{}

	// Dispatcher-owned scratch, touched only by the lane's single dispatch
	// goroutine: the input-pointer slice handed to the backend and the
	// fill-wait timer. Reusing them keeps the steady-state dispatch loop
	// allocation-free.
	inputs []*tensor.F32
	timer  *time.Timer

	mu     sync.Mutex
	closed bool
	q      latency.Lane[*call]
}

// now is the lane's clock: seconds since its epoch.
func (l *lane) now() float64 { return time.Since(l.epoch).Seconds() }

// call is one in-flight request.
type call struct {
	// ctx carries the request's trace context into the dispatcher and
	// backend; span is the request root, qspan the queue-residency span
	// (ended by the dispatcher when Take pops the call). Ownership of qspan
	// transfers with the call into the lane.
	ctx   context.Context
	span  *obs.Span
	qspan *obs.Span
	id    uint64

	input   *tensor.F32
	arrived float64 // on the lane's clock
	done    chan callDone
}

// ArrivedAt implements latency.Arrival.
func (c *call) ArrivedAt() float64 { return c.arrived }

// callDone is what a settled request's caller receives: the kind of the
// event that settled it, which names the root span's outcome.
type callDone struct {
	resp Response
	err  error
	kind eventKind
}

// callPool recycles call objects and their one-shot done channels across
// requests. The lifecycle makes this safe: every call receives exactly one
// callDone send (served, expired, failed, or never published at all), the
// sender's last touch of the call is that send, and the receiver in Submit
// recycles only after consuming it — so a pooled call is always quiescent
// and its buffered channel always empty.
var callPool = sync.Pool{
	New: func() any { return &call{done: make(chan callDone, 1)} },
}

// getCall checks a recycled call out of the pool.
func getCall() *call { return callPool.Get().(*call) }

// putCall scrubs request state (the reusable done channel survives) and
// returns the call to the pool.
func putCall(c *call) {
	c.ctx, c.span, c.qspan, c.input = nil, nil, nil, nil
	callPool.Put(c)
}

// NewServer creates a server over the given backend.
func NewServer(b Backend) *Server {
	return &Server{backend: b, metrics: NewMetrics(), lanes: map[string]*lane{}}
}

// Metrics exposes the live registry.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Observe attaches telemetry: a tracer records request-scoped spans
// (admit, queue, fill-wait, dispatch, plus whatever the backend adds
// underneath), and a logger gets structured admission/shed/expiry events
// with request ids. Either may be nil; with both nil the serving path pays
// only nil checks. Call Observe before Register — dispatcher goroutines
// read these fields without locks, which is safe exactly because Register
// starts them after Observe returns.
func (s *Server) Observe(t *obs.Tracer, logger *slog.Logger) {
	s.tracer = t
	s.logger = logger
}

// Register adds a model lane. The policy is resolved against the latency
// model immediately, so an SLA no operating point can meet fails loudly at
// registration rather than silently at runtime.
func (s *Server) Register(model string, cfg ModelConfig) (Plan, error) {
	if cfg.Service == nil {
		return Plan{}, fmt.Errorf("serve: model %s needs a Service latency model", model)
	}
	plan, err := cfg.Policy.Resolve(cfg.Service)
	if err != nil {
		return Plan{}, fmt.Errorf("serve: registering %s: %w", model, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Plan{}, ErrClosed
	}
	if _, ok := s.lanes[model]; ok {
		return Plan{}, fmt.Errorf("serve: model %s already registered", model)
	}
	l := &lane{
		model:     model,
		plan:      plan,
		sm:        cfg.Service,
		mm:        s.metrics.Model(model),
		reqTrack:  "serve/" + model,
		laneTrack: "lane/" + model,
		epoch:     time.Now(),
		wake:      make(chan struct{}, 1),
		q:         Lane[*call](plan),
	}
	if cfg.Breaker {
		l.br = new(breaker)
	}
	s.lanes[model] = l
	s.wg.Add(1)
	go s.dispatch(l)
	return plan, nil
}

// Submit enqueues one request and blocks until it is served or shed.
// Admission control is immediate: a full queue sheds the request now
// (ErrOverloaded) instead of letting it queue into certain SLA violation.
func (s *Server) Submit(model string, input *tensor.F32) (Response, error) {
	return s.SubmitCtx(context.Background(), model, input)
}

// SubmitCtx is Submit with request-scoped telemetry. When a tracer is
// attached (Observe) and head sampling keeps the request, the whole
// request becomes one trace: a root "request" span on the model's serve
// track, an "admit" span around the admission decision, a "queue" span for
// queue residency (ended when the dispatcher's Take pops the call), the
// dispatcher's "fill-wait"/"dispatch" spans on the lane track, and — with
// a context-aware backend — the runtime's compile/device-pick/run spans
// down to the device's cycle timeline.
func (s *Server) SubmitCtx(ctx context.Context, model string, input *tensor.F32) (Response, error) {
	s.mu.Lock()
	l, ok := s.lanes[model]
	s.mu.Unlock()
	if !ok {
		return Response{}, fmt.Errorf("%w: %s", ErrUnknownModel, model)
	}
	reqID := s.reqSeq.Add(1)
	var root *obs.Span
	if s.tracer != nil {
		ctx, root = s.tracer.StartRoot(ctx, "request", l.reqTrack,
			obs.String("model", model), obs.String("request_id", obs.RequestID(reqID)))
	}
	c := getCall()
	c.ctx, c.span, c.id, c.input, c.arrived = ctx, root, reqID, input, l.now()

	var admit *obs.Span
	if root.Recording() {
		_, admit = obs.Start(ctx, "admit", l.reqTrack)
		// The queue span must exist before the call joins the lane: once
		// offered, the dispatcher owns it.
		_, c.qspan = obs.Start(ctx, "queue", l.reqTrack)
	}

	l.mu.Lock()
	kind := evClosed
	if !l.closed {
		if kind = l.br.admit(l.q.Len(), l.q.Limit); kind == evAdmitted && !l.q.Offer(c) {
			kind = evShedQueue
		}
	}
	if kind != evAdmitted {
		l.mu.Unlock()
		s.emit(l, event{kind: kind, call: c, admit: admit})
		putCall(c) // never published; safe to recycle now
		return Response{}, kinds[kind].err
	}
	// The admission is folded under the lane lock, as every take is, so the
	// queue-depth gauge moves in queue order.
	depth := l.q.Len()
	s.emit(l, event{kind: evAdmitted, call: c, admit: admit, depth: depth})
	// The dispatcher sleeps only on an empty lane or a batch short of Cap,
	// so only the first arrival and the one that fills the batch rouse it.
	rouse := depth == 1 || depth >= l.q.Cap
	l.mu.Unlock()
	if rouse {
		l.signal()
	}

	d := <-c.done
	putCall(c) // the dispatcher's done send was its last touch of c
	if root.Recording() {
		root.SetAttr(obs.String("outcome", kinds[d.kind].outcome))
		if d.kind == evServed {
			root.SetAttr(obs.Int("batch", d.resp.BatchSize))
		}
		root.End()
	}
	return d.resp, d.err
}

// emit is the one consumer of lane events: it folds e into the model's
// metrics, writes its log lines, ends the spans it settles and answers the
// requests it settles. Admissions and takes arrive under the lane lock,
// which keeps the queue-depth gauge in queue order; the rest without it.
func (s *Server) emit(l *lane, e event) {
	l.mm.record(&e)
	k := &kinds[e.kind]
	switch e.kind {
	case evAdmitted:
		if e.admit.Recording() {
			e.admit.SetAttr(obs.String("outcome", k.outcome), obs.Int("queue_depth", e.depth))
			e.admit.End()
		}
	case evShedQueue, evShedBrownout, evShedBreaker, evClosed:
		// The refused request's queue span is dropped unemitted.
		s.log(l, &e, e.call)
		for _, sp := range [...]*obs.Span{e.admit, e.call.span} {
			if sp.Recording() {
				sp.SetAttr(obs.String("outcome", k.outcome))
				sp.End()
			}
		}
	case evExpired, evServed, evFailed:
		err := e.err
		if err == nil {
			err = k.err
		}
		for i, c := range e.calls {
			s.log(l, &e, c)
			d := callDone{err: err, kind: e.kind}
			if e.kind == evServed {
				d.resp = Response{Output: e.outputs[i], BatchSize: len(e.calls)}
			}
			c.done <- d
		}
	case evBreaker:
		s.log(l, &e, nil)
		if s.tracer != nil {
			_, sp := s.tracer.StartRoot(context.Background(), "breaker-transition",
				l.laneTrack, obs.String("model", l.model),
				obs.String("from", e.from.String()), obs.String("to", e.to.String()))
			sp.End()
		}
	}
}

// log writes e's log line about request c (nil for a lane event): the one
// place the server calls its logger.
func (s *Server) log(l *lane, e *event, c *call) {
	k := &kinds[e.kind]
	if s.logger == nil || k.msg == "" || !s.logger.Enabled(context.Background(), k.level) {
		return
	}
	args := []any{"model", l.model}
	if c != nil {
		args = append(args, "request_id", obs.RequestID(c.id))
	}
	switch e.kind {
	case evShedQueue:
		args = append(args, "reason", "queue_full", "queue_limit", l.q.Limit)
	case evShedBrownout:
		args = append(args, "reason", "brownout", "breaker", BreakerBrownout.String())
	case evShedBreaker:
		args = append(args, "reason", "breaker_open", "breaker", BreakerOpen.String())
	case evExpired:
		args = append(args, "reason", "deadline")
	case evServed:
		args = append(args, "latency_ms", (e.at-c.arrived)*1e3, "batch", len(e.calls))
	case evFailed:
		args = append(args, "error", e.err)
	case evBreaker:
		args = append(args, "from", e.from.String(), "to", e.to.String())
	}
	s.logger.Log(context.Background(), k.level, k.msg, args...)
}

// dispatch is the lane's wall-clock driver: it asks the lane when its head
// batch is due, sleeps until then or until Submit fills the batch, and runs
// what Take keeps. After Close it never sleeps, so the queue drains.
func (s *Server) dispatch(l *lane) {
	defer s.wg.Done()
	// fw is the fill-wait span of the head the dispatcher is holding for
	// company; it belongs to the head request's trace and ends at Take.
	var fw *obs.Span
	for {
		l.mu.Lock()
		// The breaker can shrink the batch target (brownout) or pin it to 1
		// (open: trials ride alone), so resolve it per batch.
		l.q.Cap = l.br.batchLimit(l.plan.SafeBatch)
		at, full := l.q.Due()
		now := l.now()
		if !full && now < at && !l.closed {
			var head *call
			if fw == nil && l.q.Len() > 0 {
				head = l.q.Head()
			}
			l.mu.Unlock()
			if head != nil && head.span.Recording() {
				_, fw = obs.Start(head.ctx, "fill-wait", l.laneTrack)
			}
			l.sleep(at - now)
			continue
		}
		if l.q.Len() == 0 { // closed and drained
			l.mu.Unlock()
			return
		}
		head := l.q.Head()
		kept, shed, svc, err := l.q.Take(now, l.sm)
		s.emit(l, event{kind: evTaken, depth: l.q.Len()})
		l.mu.Unlock()
		if fw.Recording() {
			fw.SetAttr(obs.Int("filled", len(kept)+len(shed)), obs.Int("safe_batch", l.q.Cap))
			fw.End()
			fw = nil
		}
		for _, c := range kept {
			c.qspan.End()
		}
		for _, c := range shed {
			c.qspan.End()
		}
		s.runBatch(l, head, kept, shed, svc, err)
	}
}

// signal wakes the dispatcher without blocking; a pending token suffices.
func (l *lane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// sleep parks the dispatcher until Submit or Close wakes it or, when d is
// finite, d seconds pass. One timer per lane, Reset per wait: since Go 1.23
// a Reset without draining cannot deliver a stale tick.
func (l *lane) sleep(d float64) {
	if math.IsInf(d, 1) {
		<-l.wake
		return
	}
	wait := time.Duration(d * float64(time.Second))
	if l.timer == nil {
		l.timer = time.NewTimer(wait)
	} else {
		l.timer.Reset(wait)
	}
	select {
	case <-l.wake:
	case <-l.timer.C:
	}
	l.timer.Stop()
}

// runBatch answers what Take shed, executes the kept batch, feeds the
// backend's outcome to the lane's breaker and delivers results; err is
// Take's pricing error, which fails the kept batch. The dispatch span rides
// the head request's trace and links every other kept member's request
// span, so a batch reads as one fan-in in the exported trace; the backend
// call runs under the dispatch span's context so a context-aware backend
// (RuntimeBackend) extends the same trace down to the device.
func (s *Server) runBatch(l *lane, head *call, kept, shed []*call, svc float64, err error) {
	ctx := head.ctx
	var dsp *obs.Span
	if head.span.Recording() {
		ctx, dsp = obs.Start(ctx, "dispatch", l.laneTrack, obs.Int("batch", len(kept)+len(shed)))
		defer dsp.End()
		dsp.SetAttr(obs.Int("expired", len(shed)), obs.Int("kept", len(kept)),
			obs.Float("svc_seconds", svc))
		for _, c := range kept {
			if c != head {
				dsp.Link(c.span.ID())
			}
		}
	}
	if len(shed) > 0 {
		s.emit(l, event{kind: evExpired, calls: shed})
	}
	if len(kept) == 0 {
		return
	}
	var outputs []*tensor.F32
	if err == nil {
		inputs := l.inputs[:0]
		for _, c := range kept {
			inputs = append(inputs, c.input)
		}
		// Note the backing array is NOT cleared after the run: a backend may
		// alias it in its return value (SimBackend echoes inputs as outputs),
		// and the stale refs it pins are bounded by one safe batch of rows.
		l.inputs = inputs[:0]
		outputs, err = s.runBackend(ctx, l.model, inputs)
		if err != nil {
			err = fmt.Errorf("serve: %s backend: %w", l.model, err)
		} else if len(outputs) != len(kept) {
			err = fmt.Errorf("serve: %s backend returned %d outputs for %d requests",
				l.model, len(outputs), len(kept))
		}
		if from, to := l.br.record(err != nil); from != to {
			s.emit(l, event{kind: evBreaker, from: from, to: to})
		}
	}
	if err != nil {
		s.emit(l, event{kind: evFailed, calls: kept, err: err})
		return
	}
	s.emit(l, event{kind: evServed, calls: kept, outputs: outputs, at: l.now()})
}

// runBackend invokes the backend, propagating the trace context when the
// backend supports it.
func (s *Server) runBackend(ctx context.Context, model string, inputs []*tensor.F32) ([]*tensor.F32, error) {
	if cb, ok := s.backend.(ContextBackend); ok {
		return cb.RunCtx(ctx, model, inputs)
	}
	return s.backend.Run(model, inputs)
}

// Close is the graceful drain: stop admission (new Submits fail with
// ErrClosed), flush every lane's queue — requests already admitted are
// still batched, served or shed against their own deadlines, never
// dropped — and wait for the dispatchers to exit. A scrape after shutdown
// reads a quiesced server: the last take emptied the queue-depth gauge, and
// the breaker gauge moved with every transition. Safe to call more than
// once and from multiple goroutines; every call blocks until the drain
// completes.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	lanes := make([]*lane, 0, len(s.lanes))
	for _, l := range s.lanes {
		lanes = append(lanes, l)
	}
	s.mu.Unlock()
	for _, l := range lanes {
		l.mu.Lock()
		l.closed = true
		l.mu.Unlock()
		l.signal()
	}
	s.wg.Wait()
}
