// Per-device health state machine. Datacenter fleets of accelerators fail
// the way the fault package models — transient errors, stragglers, hangs,
// hard death — and the serving stack's job is to keep the 99th-percentile
// SLA (the paper's Table 4 framing) intact while they do. Each device walks
// healthy -> degraded -> quarantined on failures; quarantined devices take
// no traffic but are probed in the background and re-admitted when the
// probe succeeds (a repaired or revived card rejoins the fleet without a
// restart). Every transition is logged, traced and exported.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tpusim/internal/obs"
	"tpusim/internal/tpu"
)

// HealthState is one device's position in the health state machine.
type HealthState int32

const (
	// Healthy devices take traffic normally.
	Healthy HealthState = iota
	// Degraded devices have failed recently; they still take traffic but
	// are deprioritized by the device pick and one more failure streak
	// away from quarantine.
	Degraded
	// Quarantined devices take no traffic; background probes decide when
	// they rejoin (as Degraded, promoted to Healthy by a real success).
	Quarantined
)

var healthNames = [...]string{"healthy", "degraded", "quarantined"}

// String names the state ("healthy", "degraded", "quarantined").
func (h HealthState) String() string {
	if h < 0 || int(h) >= len(healthNames) {
		return fmt.Sprintf("state(%d)", int(h))
	}
	return healthNames[h]
}

// The recovery policy's fixed knobs.
const (
	// quarantineAfter is the consecutive-failure count that quarantines a
	// device.
	quarantineAfter = 3
	// baseBackoff is the first retry's backoff, doubled per attempt up to
	// maxBackoff.
	baseBackoff = 200 * time.Microsecond
	maxBackoff  = 10 * time.Millisecond
	// timeoutFloor is the minimum derived attempt timeout.
	timeoutFloor = 25 * time.Millisecond
)

// Resilience is the fleet recovery policy. The zero value is a usable
// default; fields override individual knobs.
type Resilience struct {
	// MaxAttempts caps run attempts per request, first try included.
	// 0 means 3.
	MaxAttempts int
	// ProbeEvery is the quarantine probe interval. 0 means 100ms; negative
	// disables probing (a quarantined device stays out for the server's
	// lifetime).
	ProbeEvery time.Duration
	// TimeoutFactor scales a model's expected wall latency into its
	// per-attempt timeout, floored at timeoutFloor (25ms). 0 means 16.
	TimeoutFactor float64
	// HedgeAfterP99 launches a backup attempt on a second device when the
	// first has been out for HedgeAfterP99 x the model's observed p99
	// wall latency. 0 means 2; negative disables hedging.
	HedgeAfterP99 float64
	// CrossCheck reruns every successful request on a second device and
	// compares outputs byte-for-byte, catching silent output corruption at
	// the cost of doubling device work. Mismatches are settled by majority
	// vote on a third device when one is available. It composes with any
	// Integrity tier: CrossCheck with tpu.IntegrityCorrect is the
	// belt-and-suspenders setting.
	CrossCheck bool
	// Integrity selects the data-integrity tier (off, detect, correct).
	// Non-off tiers build every device with the corresponding on-device
	// machinery — ABFT matmul checks, CRC/parity
	// memory sidecars, PCIe frames — and make detected-corruption failures
	// retryable: an attempt that fails with an SDCError was caught before
	// shipping corrupt output, so the resilient ladder scrubs the device
	// and reruns cleanly.
	Integrity tpu.IntegrityLevel
	// ScrubEvery runs a background weight-DRAM scrub pass over every
	// device at this interval, repairing persistent weight corruption from
	// each program's golden image before a fetch trips over it. 0 disables
	// the patrol scrubber (reactive scrub-on-SDC still runs at non-off
	// integrity tiers).
	ScrubEvery time.Duration
}

func (r *Resilience) maxAttempts() int {
	if r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

func (r *Resilience) probeEvery() time.Duration {
	switch {
	case r.ProbeEvery < 0:
		return 0
	case r.ProbeEvery == 0:
		return 100 * time.Millisecond
	}
	return r.ProbeEvery
}

func (r *Resilience) timeoutFactor() float64 {
	if r.TimeoutFactor <= 0 {
		return 16
	}
	return r.TimeoutFactor
}

func (r *Resilience) hedgeFactor() float64 {
	switch {
	case r.HedgeAfterP99 < 0:
		return 0
	case r.HedgeAfterP99 == 0:
		return 2
	}
	return r.HedgeAfterP99
}

// deviceHealth is one device's health record.
type deviceHealth struct {
	mu          sync.Mutex
	state       HealthState
	consecFail  int
	lastErr     string
	transitions int64
	failures    int64
	successes   int64
	probes      int64
	probeFails  int64
	probeArmed  bool
}

// recordOutcome feeds a run outcome into the device's health record (and,
// on success, the wall-latency learner). It is the single health entry
// point for both the raw and resilient paths. Request-level cancellation
// is not the device's fault and leaves the health record untouched; the
// resilient path accounts its per-attempt timeouts explicitly.
func (s *Server) recordOutcome(dev int, model string, r *InferenceResult, err error) {
	if err == nil {
		if r != nil {
			s.observeWall(model, r)
		}
		s.recordSuccess(dev)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	s.recordFailure(dev, err)
}

// recordSuccess moves a device toward Healthy.
func (s *Server) recordSuccess(dev int) {
	h := s.health[dev]
	h.mu.Lock()
	h.successes++
	h.consecFail = 0
	from := h.state
	if h.state != Healthy {
		h.state = Healthy
		h.transitions++
	}
	h.mu.Unlock()
	if from != Healthy {
		s.emitTransition(dev, from, Healthy, "success")
	}
}

// recordFailure moves a device toward Quarantined and arms the background
// probe when it gets there.
func (s *Server) recordFailure(dev int, err error) {
	h := s.health[dev]
	h.mu.Lock()
	h.failures++
	h.consecFail++
	h.lastErr = err.Error()
	from := h.state
	to := from
	switch {
	case h.consecFail >= quarantineAfter:
		to = Quarantined
	case from == Healthy:
		to = Degraded
	}
	changed := to != from
	if changed {
		h.state = to
		h.transitions++
	}
	arm := to == Quarantined && !h.probeArmed
	if arm {
		h.probeArmed = true
	}
	h.mu.Unlock()
	if changed {
		s.emitTransition(dev, from, to, err.Error())
	}
	if arm {
		s.armProbe(dev)
	}
}

// armProbe schedules the next background probe of a quarantined device.
func (s *Server) armProbe(dev int) {
	var every time.Duration = 100 * time.Millisecond
	if s.res != nil {
		every = s.res.probeEvery()
	}
	if every <= 0 {
		s.health[dev].mu.Lock()
		s.health[dev].probeArmed = false
		s.health[dev].mu.Unlock()
		return
	}
	time.AfterFunc(every, func() { s.probeDevice(dev) })
}

// probeDevice runs one health probe against a quarantined device,
// re-admitting it (as Degraded) on success or rescheduling on failure.
func (s *Server) probeDevice(dev int) {
	select {
	case <-s.closed:
		return
	default:
	}
	h := s.health[dev]
	h.mu.Lock()
	if h.state != Quarantined {
		h.probeArmed = false
		h.mu.Unlock()
		return
	}
	h.probes++
	h.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := s.drivers[dev].Probe(ctx)
	cancel()

	h.mu.Lock()
	if err != nil {
		h.probeFails++
		h.lastErr = err.Error()
		h.mu.Unlock()
		s.armProbe(dev) // stay quarantined, keep probing
		return
	}
	from := h.state
	h.state = Degraded
	h.consecFail = 0
	h.transitions++
	h.probeArmed = false
	h.mu.Unlock()
	s.emitTransition(dev, from, Degraded, "probe ok")
}

// DeviceState returns a device's current health state.
func (s *Server) DeviceState(dev int) HealthState {
	h := s.health[dev]
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// emitTransition logs a health transition and drops an instantaneous span
// on the device's health track when a tracer is attached.
func (s *Server) emitTransition(dev int, from, to HealthState, why string) {
	s.mu.Lock()
	tracer, logger := s.tracer, s.logger
	s.mu.Unlock()
	if logger != nil {
		logger.Warn("device health transition",
			"device", dev, "from", from.String(), "to", to.String(), "why", why)
	}
	if tracer != nil {
		_, sp := tracer.StartRoot(context.Background(), "health-transition",
			s.drivers[dev].label,
			obs.Int("device", dev),
			obs.String("from", from.String()),
			obs.String("to", to.String()),
			obs.String("why", why))
		sp.End()
	}
}

// pickDevice chooses a device for the next attempt: the preferred device if
// eligible, else rotating from the round-robin cursor, best health state
// first (Healthy beats Degraded beats Quarantined; quarantined devices are
// picked only when nothing better exists). Excluded devices — ones that
// already failed this request — are never picked. ok is false when every
// device is excluded.
func (s *Server) pickDevice(preferred int, excluded map[int]bool) (int, bool) {
	eligible := func(i int) bool { return !excluded[i] }
	state := func(i int) HealthState { return s.DeviceState(i) }

	if preferred >= 0 && preferred < len(s.drivers) &&
		eligible(preferred) && state(preferred) != Quarantined {
		return preferred, true
	}
	s.mu.Lock()
	start := s.next
	s.next = (s.next + 1) % len(s.drivers)
	s.mu.Unlock()
	best, bestState := -1, Quarantined+1
	for k := 0; k < len(s.drivers); k++ {
		i := (start + k) % len(s.drivers)
		if !eligible(i) {
			continue
		}
		if st := state(i); st < bestState {
			best, bestState = i, st
			if st == Healthy {
				break
			}
		}
	}
	return best, best >= 0
}
