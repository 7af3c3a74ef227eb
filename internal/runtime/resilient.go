// The resilient run path: per-attempt timeouts derived from the timing
// model, capped-exponential-backoff retries with failover to a different
// device, and hedged requests after a p99-based delay. All of it sits
// behind Server.RunCtx, RunOnCtx and RunAll when a Resilience policy is
// installed; without one each batch is one dispatch.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"time"

	"tpusim/internal/fault"
	"tpusim/internal/nn"
	"tpusim/internal/obs"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// ErrNoDevice means every device was excluded or quarantined.
var ErrNoDevice = errors.New("runtime: no eligible device")

// ResilienceStats is the recovery machinery's event counts: the server keeps
// one under its mu, behind the Prometheus resilience series.
type ResilienceStats struct {
	// Retries counts re-attempts after a failed attempt (first tries are
	// not retries).
	Retries int64
	// Failovers counts requests answered by a different device than the
	// preferred (pinned) one.
	Failovers int64
	// Hedges counts backup attempts launched after the hedge delay.
	Hedges int64
	// HedgeWins counts hedged requests where the backup answered first.
	HedgeWins int64
	// AttemptTimeouts counts attempts cancelled by the per-attempt timeout.
	AttemptTimeouts int64
	// SDCFailures counts attempts that failed because a device-level
	// integrity check caught silent data corruption before it shipped.
	SDCFailures int64
}

// ResilienceStats returns the current event counts.
func (s *Server) ResilienceStats() ResilienceStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// count applies f to the server's event counts under mu.
func (s *Server) count(f func(c *ResilienceStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// wallStats is one model's observed wall-latency record: an EWMA for the
// timeout estimate and a small ring for an approximate p99 (the hedge
// trigger).
type wallStats struct {
	ewma   float64
	window [32]float64
	n      int
}

func (w *wallStats) observe(sec float64) {
	if w.ewma == 0 {
		w.ewma = sec
	} else {
		w.ewma += 0.2 * (sec - w.ewma)
	}
	w.window[w.n%len(w.window)] = sec
	w.n++
}

// p99 is the 99th percentile of the recent window: index n*99/100 of the
// sorted samples, which for n ≤ 32 is n-1, so the window's max — the
// conservative direction for a hedge trigger.
func (w *wallStats) p99() float64 {
	m := 0.0
	for _, x := range w.window[:min(w.n, len(w.window))] {
		m = max(m, x)
	}
	return m
}

// observeWall records a successful run's wall latency against its model and
// updates the server-wide seconds-per-cycle estimate.
func (s *Server) observeWall(model string, r *InferenceResult) {
	sec := r.DeviceSeconds
	if r.WallSeconds > 0 {
		sec = r.WallSeconds
	}
	if !(sec > 0 && sec <= math.MaxFloat64) {
		return // a NaN or +Inf would poison the EWMA and the window
	}
	s.wallMu.Lock()
	ws := s.modelWall[model]
	if ws == nil {
		ws = &wallStats{}
		s.modelWall[model] = ws
	}
	ws.observe(sec)
	if r.Counters.Cycles > 0 {
		spc := sec / float64(r.Counters.Cycles)
		if s.wallPerCycle == 0 {
			s.wallPerCycle = spc
		} else {
			s.wallPerCycle += 0.2 * (spc - s.wallPerCycle)
		}
	}
	s.wallMu.Unlock()
}

// attemptTimeout derives the per-attempt timeout for a model: TimeoutFactor
// x the model's expected wall latency (observed EWMA, falling back to the
// timing model's cycle count scaled by the learned wall-per-cycle rate),
// floored at timeoutFloor so a cold cache never yields a hair-trigger
// timeout.
func (s *Server) attemptTimeout(dev int, model string) time.Duration {
	s.wallMu.Lock()
	var expected float64
	if ws := s.modelWall[model]; ws != nil {
		expected = ws.ewma
	}
	spc := s.wallPerCycle
	s.wallMu.Unlock()
	if expected == 0 {
		if cyc := s.ExpectedCycles(model); cyc > 0 {
			if spc > 0 {
				// Learned wall seconds per cycle x the timing model's
				// cycle count for this program.
				expected = spc * float64(cyc)
			} else {
				// Nothing observed yet: fall back to simulated device time.
				expected = float64(cyc) / (s.drivers[dev].cfg.ClockMHz * 1e6)
			}
		}
	}
	to := time.Duration(s.res.timeoutFactor() * expected * float64(time.Second))
	return max(to, timeoutFloor)
}

// hedgeDelay returns the hedge trigger delay for a model, or 0 when
// hedging is disabled or no p99 is known yet.
func (s *Server) hedgeDelay(model string) time.Duration {
	f := s.res.hedgeFactor()
	if f <= 0 || len(s.drivers) < 2 {
		return 0
	}
	s.wallMu.Lock()
	ws := s.modelWall[model]
	var p float64
	if ws != nil {
		p = ws.p99()
	}
	s.wallMu.Unlock()
	if p <= 0 {
		return 0
	}
	return time.Duration(f * p * float64(time.Second))
}

// attemptOut is one attempt's outcome.
type attemptOut struct {
	dev int
	res *InferenceResult
	err error
}

// launchAttempt dispatches one attempt to dev under the per-attempt timeout
// and delivers its outcome to out. An attempt that fails with detected
// corruption is counted and its device scrubbed here, before the outcome
// is delivered — so a retry onto the device finds it scrubbed — and
// whether or not anyone still reads the outcome: a hedge loser's
// corruption is as real as a winner's, and the scrub runs to completion
// even when the request has returned and its context is done.
func (s *Server) launchAttempt(ctx context.Context, dev int, m *nn.Model, params *nn.Params, in *tensor.F32, out chan<- attemptOut) {
	go func() {
		r, err := s.dispatch(ctx, dev, s.attemptTimeout(dev, m.Name), m, params, in)
		if tpu.IsSDC(err) {
			s.count(func(c *ResilienceStats) { c.SDCFailures++ })
			s.scrubOnSDC(context.WithoutCancel(ctx), dev)
		}
		out <- attemptOut{dev: dev, res: r, err: err}
	}()
}

// runResilient is the recovery-path dispatcher: pick a device (preferred
// first, health-aware otherwise), run under a per-attempt timeout, hedge to
// a second device when the first attempt outlives the p99-based delay,
// and retry with capped exponential backoff and the failed devices
// excluded.
func (s *Server) runResilient(ctx context.Context, preferred int, m *nn.Model, params *nn.Params, in *tensor.F32) (*InferenceResult, error) {
	// Attempts can outlive this function: a hedge loser keeps running after
	// the winner returns, and ctx cancellation abandons whatever is in
	// flight. Those stragglers still read the input tensor, while the
	// caller — the serve layer's pooled dispatch scratch in particular — is
	// free to recycle it the moment we return. So the attempts share a
	// private snapshot instead of the caller's buffer: one copy per
	// resilient request, nothing on the raw path.
	in = in.Clone()
	excluded := map[int]bool{}
	backoff := baseBackoff
	var lastErr error

	var sp *obs.Span
	if obs.FromContext(ctx) != nil {
		var spCtx context.Context
		spCtx, sp = obs.Start(ctx, "resilient-run", "runtime",
			obs.String("model", m.Name), obs.Int("preferred", preferred))
		defer sp.End()
		ctx = spCtx
	}

	for attempt := 0; attempt < s.res.maxAttempts(); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dev, ok := s.pickDevice(preferred, excluded)
		if !ok {
			if len(excluded) == 0 {
				break // no devices at all
			}
			// Every device failed once this request. The backoff between
			// rounds gives transient conditions time to clear, so start a
			// fresh round rather than giving up with attempts left.
			excluded = map[int]bool{}
			dev, ok = s.pickDevice(preferred, excluded)
			if !ok {
				break
			}
		}
		if attempt > 0 {
			s.count(func(c *ResilienceStats) { c.Retries++ })
		}
		s.pickSpan(ctx, dev, pickPolicy(preferred, attempt))

		out := make(chan attemptOut, 2)
		inFlight := map[int]bool{dev: true}
		s.launchAttempt(ctx, dev, m, params, in, out)

		var hedgeC <-chan time.Time
		if attempt == 0 {
			if d := s.hedgeDelay(m.Name); d > 0 {
				t := time.NewTimer(d)
				defer t.Stop()
				hedgeC = t.C
			}
		}

		pending := 1
		for pending > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-hedgeC:
				hedgeC = nil
				hdev, hok := s.pickDevice(-1, merged(excluded, inFlight))
				if !hok {
					continue
				}
				s.count(func(c *ResilienceStats) { c.Hedges++ })
				if sp.Recording() {
					sp.SetAttr(obs.Int("hedge_device", hdev))
				}
				inFlight[hdev] = true
				s.launchAttempt(ctx, hdev, m, params, in, out)
				pending++
			case o := <-out:
				pending--
				if o.err != nil {
					lastErr = o.err
					excluded[o.dev] = true
					continue
				}
				// Winner. Account hedging and failover.
				if len(inFlight) > 1 && o.dev != dev {
					s.count(func(c *ResilienceStats) { c.HedgeWins++ })
				}
				if preferred >= 0 && o.dev != preferred {
					s.count(func(c *ResilienceStats) { c.Failovers++ })
				}
				if sp.Recording() {
					sp.SetAttr(obs.Int("device", o.dev), obs.Int("attempts", attempt+1))
				}
				return o.res, nil
			}
		}
		// Every in-flight attempt failed; back off and go around with the
		// failed devices excluded.
		if !fault.Injected(lastErr) && !isTimeout(lastErr) && !tpu.IsSDC(lastErr) {
			// A real (non-injected, non-timeout, non-SDC) error — e.g. a
			// model validation failure — will fail identically everywhere;
			// surface it instead of burning the fleet. A detected-corruption
			// failure is the opposite: the run was stopped *before* shipping
			// corrupt output, so a retry (post-scrub, or on another device)
			// is exactly the designed recovery.
			return nil, lastErr
		}
		if !sleepCtx(ctx, backoff) {
			return nil, ctx.Err()
		}
		backoff = min(2*backoff, maxBackoff)
	}
	if lastErr != nil {
		return nil, fmt.Errorf("runtime: all attempts failed: %w", lastErr)
	}
	return nil, ErrNoDevice
}

func pickPolicy(preferred, attempt int) string {
	switch {
	case attempt > 0:
		return "failover"
	case preferred >= 0:
		return "pinned"
	default:
		return "health-aware"
	}
}

func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

func merged(a, b map[int]bool) map[int]bool {
	out := maps.Clone(a)
	maps.Copy(out, b)
	return out
}

// sleepCtx sleeps for d or until ctx is cancelled; it reports whether the
// full duration elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
