package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpusim/internal/latency"
	"tpusim/internal/tensor"
)

// gateBackend blocks every batch until released, making queue states
// deterministic in tests.
type gateBackend struct {
	started chan struct{} // receives one token per batch entering Run
	release chan struct{} // closed (or fed) to let batches finish

	mu      sync.Mutex
	batches []int
}

func newGateBackend() *gateBackend {
	return &gateBackend{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (g *gateBackend) Run(model string, inputs []*tensor.F32) ([]*tensor.F32, error) {
	g.mu.Lock()
	g.batches = append(g.batches, len(inputs))
	g.mu.Unlock()
	g.started <- struct{}{}
	<-g.release
	return inputs, nil
}

func row() *tensor.F32 { return tensor.NewF32(1, 4) }

func TestServerServesBatches(t *testing.T) {
	b := NewSimBackend(0)
	b.AddModel("m", linearService(1e-4, 1e-6))
	s := NewServer(b)
	plan, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 8, SLASeconds: 7e-3, MaxWaitSeconds: 2e-3},
		Service: linearService(1e-4, 1e-6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SafeBatch != 8 {
		t.Errorf("safe batch = %d, want 8", plan.SafeBatch)
	}
	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	sizes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Submit("m", row())
			errs[i], sizes[i] = err, resp.BatchSize
		}(i)
	}
	wg.Wait()
	s.Close()
	completed := 0
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
			if sizes[i] < 1 || sizes[i] > plan.SafeBatch {
				t.Errorf("request %d rode batch of %d, safe batch %d", i, sizes[i], plan.SafeBatch)
			}
		case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadline):
			// Legitimate shed under a 2 ms fill window.
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	if completed == 0 {
		t.Fatal("nothing completed")
	}
	snap := s.Metrics().Snapshot().Models[0]
	if snap.Submitted != n {
		t.Errorf("submitted = %d, want %d", snap.Submitted, n)
	}
	if snap.Completed != uint64(completed) {
		t.Errorf("metrics completed %d, callers saw %d", snap.Completed, completed)
	}
	if got := snap.Completed + snap.ShedQueue + snap.Expired + snap.Errored; got != n {
		t.Errorf("accounting: %d settled of %d submitted", got, n)
	}
}

func TestServerQueueFullSheds(t *testing.T) {
	g := newGateBackend()
	s := NewServer(g)
	// A 1 s batch against a 3.5 s SLA: two queued batches still drain in
	// time ((2+1)*1 s <= 3.5 s), a third would not, so the bound is 2.
	plan, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 1, SLASeconds: 3.5, MaxWaitSeconds: 1e-6},
		Service: linearService(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.QueueLimit != 2 {
		t.Fatalf("queue limit = %d, want 2", plan.QueueLimit)
	}
	results := make(chan error, 3)
	submit := func() { _, err := s.Submit("m", row()); results <- err }
	go submit()
	<-g.started // first request is inside the backend; queue is empty
	go submit()
	go submit() // queue now holds 2 = QueueLimit
	waitForDepth(t, s, "m", 2)
	if _, err := s.Submit("m", row()); !errors.Is(err, ErrOverloaded) {
		t.Errorf("4th submit got %v, want ErrOverloaded", err)
	}
	close(g.release)
	for i := 0; i < 3; i++ { // g.started is buffered; no need to drain it
		if err := <-results; err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}
	s.Close()
	snap := s.Metrics().Snapshot().Models[0]
	if snap.ShedQueue != 1 {
		t.Errorf("shedQueue = %d, want 1", snap.ShedQueue)
	}
	if snap.MaxQueueDepth != 2 {
		t.Errorf("max queue depth = %d, want 2", snap.MaxQueueDepth)
	}
}

// waitForDepth polls until the model's queue gauge reaches depth.
func waitForDepth(t *testing.T, s *Server, model string, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, ms := range s.Metrics().Snapshot().Models {
			if ms.Model == model && ms.QueueDepth >= depth {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue depth never reached %d", depth)
}

func TestServerShedsExpiredAtDispatch(t *testing.T) {
	g := newGateBackend()
	s := NewServer(g)
	// SLA 30 ms, service estimate 20 ms: a request stuck behind a 100 ms
	// backend stall can no longer meet its deadline and must be shed, not
	// served late.
	_, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 1, SLASeconds: 30e-3, MaxWaitSeconds: 1e-6},
		Service: linearService(20e-3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { _, err := s.Submit("m", row()); first <- err }()
	<-g.started // first request dispatched (deadline check passed at ~0 age)
	second := make(chan error, 1)
	go func() { _, err := s.Submit("m", row()); second <- err }()
	waitForDepth(t, s, "m", 1)
	time.Sleep(100 * time.Millisecond) // age the queued request past its SLA
	close(g.release)
	if err := <-first; err != nil {
		t.Errorf("first request: %v", err)
	}
	if err := <-second; !errors.Is(err, ErrDeadline) {
		t.Errorf("second request got %v, want ErrDeadline", err)
	}
	s.Close()
	snap := s.Metrics().Snapshot().Models[0]
	if snap.Expired != 1 || snap.Completed != 1 {
		t.Errorf("expired/completed = %d/%d, want 1/1", snap.Expired, snap.Completed)
	}
}

func TestServerLifecycleErrors(t *testing.T) {
	b := NewSimBackend(0)
	b.AddModel("m", linearService(1e-4, 0))
	s := NewServer(b)
	if _, err := s.Submit("nope", row()); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: %v", err)
	}
	if _, err := s.Register("m", ModelConfig{}); err == nil {
		t.Error("nil service accepted")
	}
	cfg := ModelConfig{Policy: Policy{MaxBatch: 4, SLASeconds: 7e-3}, Service: linearService(1e-4, 0)}
	if p, err := s.Register("m", cfg); err != nil || p.SafeBatch != 4 {
		t.Fatalf("Register = %+v, %v", p, err)
	}
	if _, err := s.Register("m", cfg); err == nil {
		t.Error("duplicate registration accepted")
	}
	// SLA nothing can meet fails at Register, not at runtime.
	if _, err := s.Register("slow", ModelConfig{
		Policy: Policy{MaxBatch: 4, SLASeconds: 1e-6}, Service: linearService(1e-3, 0),
	}); err == nil {
		t.Error("impossible SLA accepted")
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit("m", row()); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
	if _, err := s.Register("late", cfg); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

// errorBackend fails every batch.
type errorBackend struct{}

func (errorBackend) Run(string, []*tensor.F32) ([]*tensor.F32, error) {
	return nil, fmt.Errorf("backend down")
}

func TestServerBackendErrorsPropagate(t *testing.T) {
	s := NewServer(errorBackend{})
	if _, err := s.Register("m", ModelConfig{
		Policy: Policy{MaxBatch: 1, SLASeconds: 1}, Service: linearService(1e-4, 0),
	}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit("m", row())
	if err == nil {
		t.Fatal("backend error swallowed")
	}
	s.Close()
	snap := s.Metrics().Snapshot().Models[0]
	if snap.Errored != 1 {
		t.Errorf("errored = %d, want 1", snap.Errored)
	}
}

// shortBackend returns fewer outputs than requests.
type shortBackend struct{}

func (shortBackend) Run(_ string, in []*tensor.F32) ([]*tensor.F32, error) {
	return in[:0], nil
}

func TestServerBackendShortOutputIsError(t *testing.T) {
	s := NewServer(shortBackend{})
	if _, err := s.Register("m", ModelConfig{
		Policy: Policy{MaxBatch: 1, SLASeconds: 1}, Service: linearService(1e-4, 0),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("m", row()); err == nil {
		t.Error("output count mismatch accepted")
	}
	s.Close()
}

// TestServerPricingErrorFailsTakenBatch: a batch the latency model cannot
// price leaves the lane anyway — its members fail with the pricing error
// instead of wedging the dispatcher — and the next batch is served.
func TestServerPricingErrorFailsTakenBatch(t *testing.T) {
	errPricing := errors.New("no price for a batch of 2")
	var armed atomic.Bool // Resolve prices 2 while sizing the plan
	sm := latency.ServiceFunc(func(n int) (float64, error) {
		if armed.Load() && n == 2 {
			return 0, errPricing
		}
		return 1e-4, nil
	})
	b := NewSimBackend(0)
	b.AddModel("m", sm)
	s := NewServer(b)
	// A 10 s fill window: only a full pair or Close dispatches.
	if _, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 2, SLASeconds: 30, MaxWaitSeconds: 10},
		Service: sm,
	}); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)

	pair := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { _, err := s.Submit("m", row()); pair <- err }()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-pair:
			if !errors.Is(err, errPricing) {
				t.Errorf("member of the unpriceable pair got %v, want the pricing error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the unpriceable pair never left the lane")
		}
	}

	later := make(chan error, 1)
	go func() { _, err := s.Submit("m", row()); later <- err }()
	waitForDepth(t, s, "m", 1)
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if err := <-later; err != nil {
		t.Errorf("request after the failed batch: %v", err)
	}
	ms := s.Metrics().Snapshot().Models[0]
	if ms.Errored != 2 || ms.Completed != 1 {
		t.Errorf("errored/completed = %d/%d, want 2/1", ms.Errored, ms.Completed)
	}
}

// TestServerConcurrencyInvariants is the batcher's -race stress test:
// N goroutines x M models hammer one server. Invariants:
//   - no deadline-violating batch is ever admitted (every executed batch is
//     within the model's deadline-safe size, whose service time fits the SLA)
//   - metrics totals balance: requests in = completed + shed (+ expired)
//   - every caller observes exactly one terminal outcome.
func TestServerConcurrencyInvariants(t *testing.T) {
	const (
		goroutines = 8
		perG       = 30
		sla        = 7e-3
	)
	services := map[string]struct {
		fixed, per float64
		maxBatch   int
	}{
		"MLP0-like":  {0.3e-3, 1e-6, 64},
		"LSTM0-like": {1.0e-3, 5e-6, 16},
		"CNN1-like":  {2.0e-3, 0.3e-3, 32}, // production batch violates SLA
	}
	backend := NewSimBackend(1.0) // sleep real (modeled) time
	s := NewServer(backend)
	plans := map[string]Plan{}
	for name, svc := range services {
		sm := linearService(svc.fixed, svc.per)
		backend.AddModel(name, sm)
		plan, err := s.Register(name, ModelConfig{
			Policy:  Policy{MaxBatch: svc.maxBatch, SLASeconds: sla},
			Service: sm,
		})
		if err != nil {
			t.Fatal(err)
		}
		plans[name] = plan
	}

	type tally struct{ completed, shed, expired, other int }
	results := make([]map[string]*tally, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := map[string]*tally{}
			for name := range services {
				mine[name] = &tally{}
			}
			for i := 0; i < perG; i++ {
				for name := range services {
					resp, err := s.Submit(name, row())
					tl := mine[name]
					switch {
					case err == nil:
						tl.completed++
						if resp.BatchSize > plans[name].SafeBatch {
							t.Errorf("%s: batch %d exceeds safe batch %d",
								name, resp.BatchSize, plans[name].SafeBatch)
						}
					case errors.Is(err, ErrOverloaded):
						tl.shed++
					case errors.Is(err, ErrDeadline):
						tl.expired++
					default:
						tl.other++
						t.Errorf("%s: unexpected error %v", name, err)
					}
				}
			}
			results[g] = mine
		}(g)
	}
	wg.Wait()
	s.Close()

	snaps := map[string]ModelSnapshot{}
	for _, ms := range s.Metrics().Snapshot().Models {
		snaps[ms.Model] = ms
	}
	for name := range services {
		var callers tally
		for g := 0; g < goroutines; g++ {
			callers.completed += results[g][name].completed
			callers.shed += results[g][name].shed
			callers.expired += results[g][name].expired
		}
		snap := snaps[name]
		total := goroutines * perG
		if int(snap.Submitted) != total {
			t.Errorf("%s: submitted %d, want %d", name, snap.Submitted, total)
		}
		// requests in = completed + shed: the registry agrees with what
		// the callers observed, and everything is accounted for.
		if int(snap.Completed) != callers.completed ||
			int(snap.ShedQueue) != callers.shed ||
			int(snap.Expired) != callers.expired {
			t.Errorf("%s: metrics (%d/%d/%d) disagree with callers (%d/%d/%d)",
				name, snap.Completed, snap.ShedQueue, snap.Expired,
				callers.completed, callers.shed, callers.expired)
		}
		if got := snap.Completed + snap.ShedQueue + snap.Expired + snap.Errored; int(got) != total {
			t.Errorf("%s: %d settled of %d", name, got, total)
		}
		if snap.InFlight != 0 {
			t.Errorf("%s: %d still in flight after Close", name, snap.InFlight)
		}
		svc, err := linearService(services[name].fixed, services[name].per).BatchSeconds(plans[name].SafeBatch)
		if err != nil || svc > sla+slaSlop {
			t.Errorf("%s: safe batch service %.2f ms exceeds SLA (%v)", name, svc*1e3, err)
		}
	}
}

// TestCloseDrainsQueuedRequests pins the graceful-drain contract: requests
// already admitted when Close begins are served, not dropped; Submits that
// race past the drain start fail fast with ErrClosed; and once Close
// returns, the metric state reads as a quiesced server (queue depth zero,
// everything accounted). Run under -race this also exercises the
// Close/Submit/dispatch interleavings.
func TestCloseDrainsQueuedRequests(t *testing.T) {
	g := newGateBackend()
	s := NewServer(g)
	if _, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 2, SLASeconds: 30, MaxWaitSeconds: 1e-5},
		Service: linearService(1e-4, 1e-6),
	}); err != nil {
		t.Fatal(err)
	}
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Submit("m", row())
		}(i)
	}
	// Head batch is inside the backend, gate held shut...
	<-g.started
	// ...and every other request is admitted (queued or batching).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if ms := s.Metrics().Snapshot().Models[0]; ms.Submitted == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submitters never all admitted")
		}
		time.Sleep(100 * time.Microsecond)
	}

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// Admission shuts before the queue drains: a late Submit is refused
	// even while earlier requests still wait behind the gate. Probes that
	// race into the window before the lane latches closed are admitted and
	// block until the drain serves them, so each runs in its own goroutine.
	probeErrs := make(chan error, 64)
	probes, sawClosed := 0, false
	for !sawClosed && probes < cap(probeErrs) {
		probes++
		go func() {
			_, err := s.Submit("m", row())
			probeErrs <- err
		}()
		select {
		case err := <-probeErrs:
			probes--
			if errors.Is(err, ErrClosed) {
				sawClosed = true
			}
		case <-time.After(2 * time.Millisecond):
			// Probe admitted (or shedding slowly); it reports later.
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started failing with ErrClosed")
		}
	}
	if !sawClosed {
		t.Fatal("Submit never refused admission during the drain")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while the backend still held requests")
	default:
	}

	close(g.release) // open the gate; the drain flushes the queue
	wg.Wait()
	<-closed
	s.Close() // second Close is a no-op that still waits

	// Outstanding probes settle now: served by the drain or refused.
	servedProbes := 0
	for i := 0; i < probes; i++ {
		switch err := <-probeErrs; {
		case err == nil:
			servedProbes++
		case errors.Is(err, ErrClosed):
		default:
			t.Errorf("probe neither served nor refused: %v", err)
		}
	}

	for i, err := range errs {
		if err != nil {
			t.Errorf("admitted request %d dropped on shutdown: %v", i, err)
		}
	}
	ms := s.Metrics().Snapshot().Models[0]
	if want := uint64(n + servedProbes); ms.Completed != want {
		t.Errorf("completed = %d, want %d", ms.Completed, want)
	}
	if ms.QueueDepth != 0 {
		t.Errorf("queue depth after Close = %d, want 0", ms.QueueDepth)
	}
	if ms.InFlight != 0 {
		t.Errorf("in flight after Close = %d, want 0", ms.InFlight)
	}
}
