package serve

import (
	"context"
	"errors"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tpusim/internal/obs"
)

// captureHandler is an slog.Handler that keeps every record, debug level
// included, with its attributes rendered as strings.
type captureHandler struct {
	mu   sync.Mutex
	recs []logRecord
}

// logRecord is one captured record. An expected attribute value of "*"
// matches any value, for attributes that carry a measurement.
type logRecord struct {
	level slog.Level
	msg   string
	attrs map[string]string
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{level: r.Level, msg: r.Message, attrs: map[string]string{}}
	r.Attrs(func(a slog.Attr) bool {
		rec.attrs[a.Key] = a.Value.String()
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
	return nil
}

func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *captureHandler) WithGroup(string) slog.Handler      { return h }

// String renders a record in one line for failure messages; attributes in
// key order.
func (r logRecord) String() string {
	keys := make([]string, 0, len(r.attrs))
	for k := range r.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.level.String() + " " + r.msg)
	for _, k := range keys {
		b.WriteString(" " + k + "=" + r.attrs[k])
	}
	return b.String()
}

// matches reports whether got is the expected record: same level, message
// and attribute keys, and every value equal or wildcarded.
func (r logRecord) matches(got logRecord) bool {
	if r.level != got.level || r.msg != got.msg || len(r.attrs) != len(got.attrs) {
		return false
	}
	for k, v := range r.attrs {
		g, ok := got.attrs[k]
		if !ok || (v != "*" && v != g) {
			return false
		}
	}
	return true
}

// loggedServer registers model "m" on a server over b whose logger writes
// to a fresh capture handler.
func loggedServer(t *testing.T, b Backend, cfg ModelConfig) (*Server, *captureHandler) {
	t.Helper()
	h := &captureHandler{}
	s := NewServer(b)
	s.Observe(nil, slog.New(h))
	if _, err := s.Register("m", cfg); err != nil {
		t.Fatal(err)
	}
	return s, h
}

// checkLog closes s and checks that h holds exactly the want records, in
// any order: the dispatcher and the clients log from different goroutines.
func checkLog(t *testing.T, s *Server, h *captureHandler, want []logRecord) {
	t.Helper()
	s.Close()
	h.mu.Lock()
	got := slices.Clone(h.recs)
	h.mu.Unlock()
	for _, w := range want {
		i := slices.IndexFunc(got, w.matches)
		if i < 0 {
			t.Errorf("no log record matches %v", w)
			continue
		}
		got = slices.Delete(got, i, i+1)
	}
	for _, g := range got {
		t.Errorf("unexpected log record %v", g)
	}
}

func served(id string) logRecord {
	return logRecord{slog.LevelDebug, "request served",
		map[string]string{"model": "m", "request_id": id, "latency_ms": "*", "batch": "1"}}
}

func failed(id string) logRecord {
	return logRecord{slog.LevelError, "request failed",
		map[string]string{"model": "m", "request_id": id, "error": "serve: m backend: backend down"}}
}

func transition(from, to string) logRecord {
	return logRecord{slog.LevelWarn, "breaker transition",
		map[string]string{"model": "m", "from": from, "to": to}}
}

// gatedQueueOfTwo fills a gate-backed lane whose queue limit is 2: request
// 1 inside the backend, requests 2 and 3 queued, in that order. It returns
// the channel their three results arrive on.
func gatedQueueOfTwo(t *testing.T, s *Server, g *gateBackend) chan error {
	t.Helper()
	results := make(chan error, 3)
	submit := func() { _, err := s.Submit("m", row()); results <- err }
	go submit()
	<-g.started
	go submit()
	waitForDepth(t, s, "m", 1)
	go submit()
	waitForDepth(t, s, "m", 2)
	return results
}

func drain(t *testing.T, results chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}
}

// queueOfTwo is a lane whose 1 s batches against a 3.5 s SLA bound its
// queue at 2 (see TestServerQueueFullSheds).
var queueOfTwo = ModelConfig{
	Policy:  Policy{MaxBatch: 1, SLASeconds: 3.5, MaxWaitSeconds: 1e-6},
	Service: linearService(1, 0),
}

// TestServerLogLines pins what the server logs for each request fate and
// breaker transition: the level, the message and every attribute.
func TestServerLogLines(t *testing.T) {
	t.Run("served", func(t *testing.T) {
		b := NewSimBackend(0)
		b.AddModel("m", linearService(1e-4, 0))
		s, h := loggedServer(t, b, ModelConfig{
			Policy: Policy{MaxBatch: 1, SLASeconds: 1}, Service: linearService(1e-4, 0),
		})
		if _, err := s.Submit("m", row()); err != nil {
			t.Fatal(err)
		}
		checkLog(t, s, h, []logRecord{served("req-000001")})
	})

	t.Run("queue full", func(t *testing.T) {
		g := newGateBackend()
		s, h := loggedServer(t, g, queueOfTwo)
		results := gatedQueueOfTwo(t, s, g)
		if _, err := s.Submit("m", row()); !errors.Is(err, ErrOverloaded) {
			t.Errorf("4th submit got %v, want ErrOverloaded", err)
		}
		close(g.release)
		drain(t, results, 3)
		checkLog(t, s, h, []logRecord{
			{slog.LevelWarn, "request shed at admission", map[string]string{
				"model": "m", "request_id": "req-000004", "reason": "queue_full", "queue_limit": "2"}},
			served("req-000001"), served("req-000002"), served("req-000003"),
		})
	})

	t.Run("brownout", func(t *testing.T) {
		g := newGateBackend()
		cfg := queueOfTwo
		cfg.Breaker = true
		s, h := loggedServer(t, g, cfg)
		results := gatedQueueOfTwo(t, s, g)
		// Brownout keeps half the queue bound (1), and 2 are queued.
		br := s.lanes["m"].br
		br.mu.Lock()
		br.state = BreakerBrownout
		br.mu.Unlock()
		if _, err := s.Submit("m", row()); !errors.Is(err, ErrBrownout) {
			t.Errorf("4th submit got %v, want ErrBrownout", err)
		}
		close(g.release)
		drain(t, results, 3)
		checkLog(t, s, h, []logRecord{
			{slog.LevelWarn, "request shed at admission", map[string]string{
				"model": "m", "request_id": "req-000004", "reason": "brownout", "breaker": "brownout"}},
			served("req-000001"), served("req-000002"), served("req-000003"),
		})
	})

	t.Run("deadline", func(t *testing.T) {
		g := newGateBackend()
		// As TestServerShedsExpiredAtDispatch: the second request ages past
		// its 30 ms SLA behind a stalled first batch.
		s, h := loggedServer(t, g, ModelConfig{
			Policy:  Policy{MaxBatch: 1, SLASeconds: 30e-3, MaxWaitSeconds: 1e-6},
			Service: linearService(20e-3, 0),
		})
		first := make(chan error, 1)
		go func() { _, err := s.Submit("m", row()); first <- err }()
		<-g.started
		second := make(chan error, 1)
		go func() { _, err := s.Submit("m", row()); second <- err }()
		waitForDepth(t, s, "m", 1)
		time.Sleep(100 * time.Millisecond)
		close(g.release)
		if err := <-first; err != nil {
			t.Errorf("first request: %v", err)
		}
		if err := <-second; !errors.Is(err, ErrDeadline) {
			t.Errorf("second request got %v, want ErrDeadline", err)
		}
		checkLog(t, s, h, []logRecord{
			served("req-000001"),
			{slog.LevelWarn, "request shed at dispatch", map[string]string{
				"model": "m", "request_id": "req-000002", "reason": "deadline"}},
		})
	})

	t.Run("backend error", func(t *testing.T) {
		s, h := loggedServer(t, errorBackend{}, ModelConfig{
			Policy: Policy{MaxBatch: 1, SLASeconds: 1}, Service: linearService(1e-4, 0),
		})
		if _, err := s.Submit("m", row()); err == nil {
			t.Fatal("backend error swallowed")
		}
		checkLog(t, s, h, []logRecord{failed("req-000001")})
	})

	t.Run("breaker", func(t *testing.T) {
		fb := &flakyBackend{broken: true}
		s, h := loggedServer(t, fb, ModelConfig{
			Policy:  Policy{MaxBatch: 1, SLASeconds: 1, MaxWaitSeconds: 1e-4},
			Service: linearService(1e-4, 0),
			Breaker: true,
		})
		var want []logRecord
		// breakerMinSamples failed batches open the breaker; the next
		// request is its first trial, which fails too.
		for i := 1; i <= breakerMinSamples+1; i++ {
			if _, err := s.Submit("m", row()); err == nil {
				t.Fatalf("request %d served by a broken backend", i)
			}
			want = append(want, failed(obs.RequestID(uint64(i))))
		}
		want = append(want, transition("closed", "open"))
		// Inside the trial interval the open breaker sheds.
		if _, err := s.Submit("m", row()); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("request inside the trial interval got %v, want ErrBreakerOpen", err)
		}
		want = append(want, logRecord{slog.LevelWarn, "request shed at admission", map[string]string{
			"model": "m", "request_id": obs.RequestID(breakerMinSamples + 2), "reason": "breaker_open", "breaker": "open"}})
		// A successful trial steps the breaker down to brownout.
		fb.setBroken(false)
		expireTrial(s.lanes["m"].br)
		if _, err := s.Submit("m", row()); err != nil {
			t.Fatalf("trial request: %v", err)
		}
		want = append(want, served(obs.RequestID(breakerMinSamples+3)), transition("open", "brownout"))
		checkLog(t, s, h, want)
	})
}
