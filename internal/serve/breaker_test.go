package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"tpusim/internal/tensor"
)

// flakyBackend fails batches while broken is set.
type flakyBackend struct {
	mu     sync.Mutex
	broken bool
	runs   int
	fails  int
}

func (f *flakyBackend) setBroken(b bool) {
	f.mu.Lock()
	f.broken = b
	f.mu.Unlock()
}

func (f *flakyBackend) Run(_ string, in []*tensor.F32) ([]*tensor.F32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runs++
	if f.broken {
		f.fails++
		return nil, errors.New("backend down")
	}
	return in, nil
}

// expireTrial moves an open breaker's last trial back by breakerOpenFor,
// so its next admission is a trial without sleeping for it.
func expireTrial(b *breaker) {
	b.mu.Lock()
	b.lastTrial = b.lastTrial.Add(-breakerOpenFor)
	b.mu.Unlock()
}

// TestBreakerStateMachine drives the breaker directly through its
// transitions: closed -> brownout -> open -> (trial success) -> brownout
// -> closed.
func TestBreakerStateMachine(t *testing.T) {
	br := new(breaker)
	if br.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	// 40% failures over a full window: brownout (>= 0.3, < 0.7).
	for i := 0; i < 5*breakerWindow; i++ {
		br.record(i%5 < 2)
	}
	if br.State() != BreakerBrownout {
		t.Fatalf("state after 40%% failures = %v, want brownout", br.State())
	}
	// All failures: open.
	for i := 0; i < breakerWindow; i++ {
		br.record(true)
	}
	if br.State() != BreakerOpen {
		t.Fatalf("state after 100%% failures = %v, want open", br.State())
	}
	// While open, admission sheds except one trial per interval.
	if kind := br.admit(0, 8); kind != evAdmitted {
		// First trial fires after OpenFor from lastTrial (zeroed on open),
		// so it is admitted immediately.
		t.Fatalf("first trial rejected: %s", kinds[kind].outcome)
	}
	if kind := br.admit(0, 8); kind != evShedBreaker {
		t.Fatalf("second request inside trial interval got %q, want breaker_open", kinds[kind].outcome)
	}
	// A trial failure keeps it open; the next trial waits breakerOpenFor.
	if from, to := br.record(true); from != BreakerOpen || to != BreakerOpen {
		t.Fatalf("trial failure moved %v->%v, want open->open", from, to)
	}
	expireTrial(br)
	if kind := br.admit(0, 8); kind != evAdmitted {
		t.Fatalf("trial after breakerOpenFor rejected: %s", kinds[kind].outcome)
	}
	// Trial success steps down to brownout with a cleared window.
	if from, to := br.record(false); from != BreakerOpen || to != BreakerBrownout {
		t.Fatalf("trial success moved %v->%v, want open->brownout", from, to)
	}
	// Sustained successes close it once the cleared window refills to
	// breakerMinSamples.
	for i := 0; i < breakerMinSamples; i++ {
		br.record(false)
	}
	if br.State() != BreakerClosed {
		t.Fatalf("state after recovery = %v, want closed", br.State())
	}
	// Batch limits per state.
	if got := br.batchLimit(8); got != 8 {
		t.Errorf("closed batch limit = %d, want 8", got)
	}
}

// TestBreakerBatchAndQueueLimits pins the brownout degradations.
func TestBreakerBatchAndQueueLimits(t *testing.T) {
	br := new(breaker)
	// Below breakerMinSamples outcomes nothing moves, even all failures.
	for i := 0; i < breakerMinSamples; i++ {
		if br.State() != BreakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i, br.State())
		}
		br.record(true)
	}
	if br.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", br.State())
	}
	if got := br.batchLimit(8); got != 1 {
		t.Errorf("open batch limit = %d, want 1 (trials ride alone)", got)
	}
	br.record(false) // trial success -> brownout
	if got := br.batchLimit(8); got != 4 {
		t.Errorf("brownout batch limit = %d, want 4", got)
	}
	if got := br.batchLimit(1); got != 1 {
		t.Errorf("brownout batch limit floor = %d, want 1", got)
	}
	// Brownout queue bound: capacity 8 x 0.5 = 4.
	if br.admit(3, 8) != evAdmitted {
		t.Error("depth 3 of 8 shed in brownout (limit should be 4)")
	}
	if kind := br.admit(4, 8); kind != evShedBrownout {
		t.Errorf("depth 4 of 8 in brownout got %q, want brownout", kinds[kind].outcome)
	}
	// Nil breaker is a no-op.
	var nb *breaker
	if nb.admit(100, 1) != evAdmitted {
		t.Error("nil breaker shed")
	}
	if nb.batchLimit(8) != 8 || nb.State() != BreakerClosed {
		t.Error("nil breaker not transparent")
	}
}

// TestServerBreakerTripAndRecover is the end-to-end breaker test: a
// backend outage trips the lane open (requests shed with ErrBreakerOpen),
// recovery is discovered by a trial request, and the lane walks back to
// closed while serving normally.
func TestServerBreakerTripAndRecover(t *testing.T) {
	fb := &flakyBackend{}
	s := NewServer(fb)
	_, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 4, SLASeconds: 1, MaxWaitSeconds: 1e-4},
		Service: linearService(1e-4, 0),
		Breaker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mu.Lock()
	br := s.lanes["m"].br
	s.mu.Unlock()

	// Healthy service.
	if _, err := s.Submit("m", row()); err != nil {
		t.Fatal(err)
	}

	// Outage: enough failed batches trip the breaker open.
	fb.setBroken(true)
	for i := 0; i < breakerWindow; i++ {
		_, err := s.Submit("m", row())
		if err == nil {
			t.Fatalf("request %d served during outage", i)
		}
		if errors.Is(err, ErrBreakerOpen) {
			break
		}
		if i == breakerWindow-1 {
			t.Fatalf("breaker never opened; last err %v", err)
		}
	}
	mm := s.Metrics().Model("m")
	if mm.snapshot().BreakerState != "open" {
		t.Fatalf("breaker state %q, want open", mm.snapshot().BreakerState)
	}

	// Shed accounting: at least one request must carry the distinct reason.
	sawOpenShed := false
	for i := 0; i < 20 && !sawOpenShed; i++ {
		_, err := s.Submit("m", row())
		sawOpenShed = errors.Is(err, ErrBreakerOpen)
		time.Sleep(200 * time.Microsecond)
	}
	if !sawOpenShed {
		t.Fatal("no request shed with ErrBreakerOpen while open")
	}

	// Recovery: a trial discovers the healthy backend and the lane
	// recloses after breakerMinSamples more successes.
	fb.setBroken(false)
	for i := 0; mm.snapshot().BreakerState != "closed"; i++ {
		if i == 2*breakerWindow {
			t.Fatalf("lane never re-closed; state %s", mm.snapshot().BreakerState)
		}
		expireTrial(br)
		s.Submit("m", row()) //nolint:errcheck // sheds are expected until the trial
	}
	snap := mm.snapshot()
	if snap.ShedBreaker == 0 {
		t.Error("shed_breaker counter never moved")
	}
	if !strings.Contains(s.Metrics().Prometheus(), `tpuserve_breaker_state{model="m"}`) {
		t.Error("breaker state gauge missing from exposition")
	}
}

// TestServerBrownoutShrinksBatches pins the brownout degradation through
// the server: a lane held in brownout dispatches batches no larger than
// the shrunken target.
func TestServerBrownoutShrinksBatches(t *testing.T) {
	g := newGateBackend()
	s := NewServer(g)
	plan, err := s.Register("m", ModelConfig{
		Policy:  Policy{MaxBatch: 8, SLASeconds: 1, MaxWaitSeconds: 5e-3},
		Service: linearService(1e-4, 0),
		Breaker: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.SafeBatch != 8 {
		t.Fatalf("safe batch = %d, want 8", plan.SafeBatch)
	}

	// Seed a full window oldest-first with 5 successes, then 11 failures
	// (11/16, brownout). The 8 successes recorded below replace the 5
	// successes and 3 failures, so the fraction stays in [8/16, 11/16]
	// and the lane stays in brownout.
	s.mu.Lock()
	l := s.lanes["m"]
	s.mu.Unlock()
	for i := 0; i < breakerWindow; i++ {
		l.br.record(i >= 5)
	}
	if l.br.State() != BreakerBrownout {
		t.Fatalf("seeded state = %v, want brownout", l.br.State())
	}

	// Fire 8 concurrent submits; the brownout target is 8/2 = 4, so no
	// dispatched batch may exceed 4 even though all 8 queue together.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit("m", row())
			if err != nil && !errors.Is(err, ErrBrownout) {
				t.Errorf("submit: %v", err)
			}
		}()
	}
	go func() {
		for range g.started { // release each batch as it arrives
		}
	}()
	close(g.release)
	wg.Wait()
	s.Close()
	close(g.started)

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.batches) == 0 {
		t.Fatal("no batches dispatched")
	}
	for _, size := range g.batches {
		if size > 4 {
			t.Errorf("brownout dispatched a batch of %d, limit 4 (all: %v)", size, g.batches)
		}
	}
}

// erraticBackend fails every third batch and stalls briefly so expiry,
// error, and success paths all fire under concurrent load.
type erraticBackend struct {
	mu    sync.Mutex
	calls int
}

func (e *erraticBackend) Run(_ string, in []*tensor.F32) ([]*tensor.F32, error) {
	e.mu.Lock()
	e.calls++
	n := e.calls
	e.mu.Unlock()
	time.Sleep(200 * time.Microsecond)
	if n%3 == 0 {
		return nil, errors.New("erratic backend failure")
	}
	return in, nil
}

// TestServerErroringBackendAccounting drives a lane with an
// intermittently-failing, slow backend under concurrent load and checks
// the admission ledger balances: every submitted request settles exactly
// once as completed, errored, expired, or shed — no loss, no double
// counting. Run under -race this also exercises the metrics and breaker
// paths for data races.
func TestServerErroringBackendAccounting(t *testing.T) {
	s := NewServer(&erraticBackend{})
	_, err := s.Register("m", ModelConfig{
		// Tight SLA + short derived queue force some expiry and queue shedding
		// alongside the backend errors.
		Policy:  Policy{MaxBatch: 4, SLASeconds: 2e-3, MaxWaitSeconds: 2e-4},
		Service: linearService(1e-4, 1e-5),
		Breaker: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	var wg sync.WaitGroup
	var completed, failed uint64
	var cmu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Submit("m", row())
			cmu.Lock()
			if err == nil {
				completed++
			} else {
				failed++
			}
			cmu.Unlock()
		}()
		if i%10 == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Wait()
	s.Close()

	snap := s.Metrics().Model("m").snapshot()
	if snap.Submitted != n {
		t.Fatalf("submitted = %d, want %d", snap.Submitted, n)
	}
	settled := snap.Completed + snap.Errored + snap.Expired +
		snap.ShedQueue + snap.ShedBrownout + snap.ShedBreaker
	if settled != n {
		t.Errorf("ledger does not balance: settled %d of %d (%+v)", settled, n, snap)
	}
	if snap.InFlight != 0 {
		t.Errorf("in-flight %d after drain, want 0", snap.InFlight)
	}
	if snap.Completed != completed {
		t.Errorf("caller saw %d successes, metrics say %d", completed, snap.Completed)
	}
	if snap.Errored == 0 {
		t.Error("backend errors never surfaced in metrics")
	}
	if completed+failed != n {
		t.Fatalf("caller accounting broken: %d+%d != %d", completed, failed, n)
	}
}
