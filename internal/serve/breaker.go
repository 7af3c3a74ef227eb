package serve

import (
	"fmt"
	"sync"
	"time"
)

// A model lane's circuit breaker and brownout policy (ModelConfig.Breaker).
// The breaker watches the lane's recent backend outcomes over a sliding
// window and degrades service in two steps instead of letting a sick fleet
// drown in retried work:
//
//   - Brownout: at a moderate failure fraction the lane keeps serving but
//     sheds load early — the dispatch batch target shrinks (smaller blast
//     radius per backend call, faster feedback) and admission tightens to a
//     fraction of the queue (arrivals that would have queued deep are shed
//     with a distinct "brownout" reason).
//   - Open: at a high failure fraction the lane stops taking traffic
//     entirely; one trial request per breakerOpenFor probes the backend,
//     and a trial success steps the breaker back down to brownout.
//
// The window is breakerWindow batches, and the state holds until it has
// breakerMinSamples outcomes. brownoutFrac and openFrac are the failure
// fractions that trigger brownout and open the breaker; a browned-out lane
// scales its deadline-safe batch target by brownoutBatchFrac and keeps
// brownoutQueueFrac of the admission queue bound (each minimum 1).
const (
	breakerWindow     = 16
	breakerMinSamples = 8
	breakerOpenFor    = 250 * time.Millisecond
	brownoutFrac      = 0.3
	openFrac          = 0.7
	brownoutBatchFrac = 0.5
	brownoutQueueFrac = 0.5
)

// BreakerState is a lane breaker's position.
type BreakerState int32

const (
	// BreakerClosed is normal service.
	BreakerClosed BreakerState = iota
	// BreakerBrownout is degraded service: shrunken batch target and a
	// tightened admission queue.
	BreakerBrownout
	// BreakerOpen sheds everything except one periodic trial request.
	BreakerOpen
)

var breakerNames = [...]string{"closed", "brownout", "open"}

// String names the state ("closed", "brownout", "open").
func (b BreakerState) String() string {
	if b < 0 || int(b) >= len(breakerNames) {
		return fmt.Sprintf("state(%d)", int(b))
	}
	return breakerNames[b]
}

// breaker is one lane's failure-fraction state machine. All methods are
// nil-safe: a lane without a breaker pays one nil check.
type breaker struct {
	mu        sync.Mutex
	ring      [breakerWindow]bool // true = batch failed
	n, idx    int
	state     BreakerState
	lastTrial time.Time
}

// State returns the breaker's current position.
func (b *breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// record feeds one batch outcome into the window and walks the state
// machine; it reports the transition (from == to when nothing changed).
func (b *breaker) record(failed bool) (from, to BreakerState) {
	if b == nil {
		return BreakerClosed, BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	from, to = b.state, b.state

	if b.state == BreakerOpen {
		// Outcomes while open are trial results: success steps down to
		// brownout with a cleared window, failure keeps it open.
		if !failed {
			to = BreakerBrownout
			b.state = to
			b.clearLocked()
		}
		return from, to
	}

	b.ring[b.idx] = failed
	b.idx = (b.idx + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}
	if b.n < breakerMinSamples {
		return from, to
	}
	fails := 0
	for i := 0; i < b.n; i++ {
		if b.ring[i] {
			fails++
		}
	}
	frac := float64(fails) / float64(b.n)
	switch {
	case frac >= openFrac:
		to = BreakerOpen
		b.lastTrial = time.Time{} // the first trial is immediate
	case frac >= brownoutFrac:
		to = BreakerBrownout
	default:
		to = BreakerClosed
	}
	b.state = to
	return from, to
}

func (b *breaker) clearLocked() {
	b.ring = [breakerWindow]bool{}
	b.n, b.idx = 0, 0
}

// admit decides whether a new request may enter a queue currently at depth
// (capacity cap): evAdmitted, or the kind of shed.
func (b *breaker) admit(depth, capacity int) eventKind {
	if b == nil {
		return evAdmitted
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		now := time.Now()
		if now.Sub(b.lastTrial) >= breakerOpenFor {
			b.lastTrial = now
			return evAdmitted // the periodic trial request
		}
		return evShedBreaker
	case BreakerBrownout:
		limit := int(float64(capacity) * brownoutQueueFrac)
		if limit < 1 {
			limit = 1
		}
		if depth >= limit {
			return evShedBrownout
		}
	}
	return evAdmitted
}

// batchLimit scales the lane's deadline-safe batch target by the breaker's
// state: full size closed, shrunken in brownout, 1 while open (trials ride
// alone).
func (b *breaker) batchLimit(safe int) int {
	switch b.State() {
	case BreakerOpen:
		return 1
	case BreakerBrownout:
		limit := int(float64(safe) * brownoutBatchFrac)
		if limit < 1 {
			limit = 1
		}
		return limit
	}
	return safe
}
