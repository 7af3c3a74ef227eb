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
	"fmt"
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
	// Integrity selects the data-integrity tier (off, detect, correct).
	// Non-off tiers build every device with the corresponding on-device
	// machinery — ABFT matmul checks, CRC/parity
	// memory sidecars, PCIe frames — and make detected-corruption failures
	// retryable: an attempt that fails with an SDCError was caught before
	// shipping corrupt output, so the resilient ladder scrubs the device
	// and reruns cleanly.
	Integrity tpu.IntegrityLevel
}

func (r *Resilience) maxAttempts() int {
	if r.MaxAttempts <= 0 {
		return 3
	}
	return r.MaxAttempts
}

// probeEvery is the quarantine probe interval, 0 when probing is off. A
// server without a policy (nil r) probes at the default interval.
func (r *Resilience) probeEvery() time.Duration {
	switch {
	case r == nil || r.ProbeEvery == 0:
		return 100 * time.Millisecond
	case r.ProbeEvery < 0:
		return 0
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

// recordSuccess folds a successful batch into its device's record: the run
// count and the move toward Healthy in one critical section.
func (s *Server) recordSuccess(dev int) {
	s.transition(dev, "success", func(d *Driver) HealthState {
		d.runs++
		d.consecFail = 0
		return Healthy
	})
}

// recordFailure moves a device toward Quarantined and arms the background
// probe when it gets there.
func (s *Server) recordFailure(dev int, err error) {
	why := err.Error()
	arm := false
	s.transition(dev, why, func(d *Driver) HealthState {
		d.failures++
		d.consecFail++
		d.lastErr = why
		to := d.state
		switch {
		case d.consecFail >= quarantineAfter:
			to = Quarantined
		case to == Healthy:
			to = Degraded
		}
		arm = to == Quarantined && !d.probeArmed && s.res.probeEvery() > 0
		d.probeArmed = d.probeArmed || arm
		return to
	})
	if arm {
		s.armProbe(dev)
	}
}

// armProbe schedules the next background probe of a quarantined device.
func (s *Server) armProbe(dev int) {
	time.AfterFunc(s.res.probeEvery(), func() { s.probeDevice(dev) })
}

// probeDevice runs one health probe against a quarantined device,
// re-admitting it (as Degraded) on success or rescheduling on failure.
func (s *Server) probeDevice(dev int) {
	select {
	case <-s.closed:
		return
	default:
	}
	d := s.drivers[dev]
	d.mu.Lock()
	if d.state != Quarantined {
		d.probeArmed = false
		d.mu.Unlock()
		return
	}
	d.probes++
	d.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := d.Probe(ctx)
	cancel()

	if err != nil {
		d.mu.Lock()
		d.lastErr = err.Error()
		d.mu.Unlock()
		s.armProbe(dev) // stay quarantined, keep probing
		return
	}
	s.transition(dev, "probe ok", func(d *Driver) HealthState {
		d.consecFail = 0
		d.probeArmed = false
		return Degraded
	})
}

// transition applies f to device dev's record under its driver's mu and
// moves the device to the state f returns. It is the one place a health
// transition is written: a change is logged, and drops an instantaneous
// span on the device's track when a tracer is attached.
func (s *Server) transition(dev int, why string, f func(d *Driver) HealthState) {
	d := s.drivers[dev]
	d.mu.Lock()
	from := d.state
	to := f(d)
	d.state = to
	d.mu.Unlock()
	if to == from {
		return
	}
	tracer, logger := s.sinks()
	if logger != nil {
		logger.Warn("device health transition",
			"device", dev, "from", from.String(), "to", to.String(), "why", why)
	}
	if tracer != nil {
		_, sp := tracer.StartRoot(context.Background(), "health-transition", d.label,
			obs.Int("device", dev),
			obs.String("from", from.String()),
			obs.String("to", to.String()),
			obs.String("why", why))
		sp.End()
	}
}

// DeviceState returns a device's current health state.
func (s *Server) DeviceState(dev int) HealthState {
	d := s.drivers[dev]
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
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
	start := s.nextDevice()
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
