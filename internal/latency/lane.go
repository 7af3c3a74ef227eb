package latency

import (
	"fmt"
	"math"
	"slices"

	"tpusim/internal/workload"
)

// SLASlop absorbs float rounding when comparing latencies against an SLA.
const SLASlop = 1e-12

// Late reports whether a request that arrived at arr and would complete at
// start+svc misses the SLA — the one shed-at-dispatch decision every lane
// driver and serve.Plan.Expired share.
func Late(arr, start, svc, sla float64) bool {
	return start+svc-arr > sla+SLASlop
}

// Arrival is all the lane reads of a queued request; whatever else the
// driver carries (routing key, failover count) rides along untouched.
type Arrival interface {
	ArrivedAt() float64
}

// At is the bare request of the arrival-scan driver: its arrival time.
type At float64

// ArrivedAt implements Arrival.
func (a At) ArrivedAt() float64 { return float64(a) }

// Lane is the batching server's queueing rule set, written once: a FIFO of
// requests and the four numbers it runs on. It holds no clock — the driver
// (Drive's arrival scan, the cluster's des events, the wall-clock
// serve.Server) says what time it is — so every simulator and the real
// server run the same admit / fill-wait / take / shed decisions. The zero
// Lane with Cap set is Table 4's server: no fill wait, unbounded queue, no
// shedding.
type Lane[R Arrival] struct {
	// Cap is the largest batch Take assembles.
	Cap int
	// MaxWait bounds how long the head request waits for the batch to fill.
	MaxWait float64
	// Limit bounds the queue; Offer refuses beyond it. 0 means unbounded.
	Limit int
	// SLA is the deadline Take sheds against. 0 means none.
	SLA float64

	queue []R
	batch []R // the last Take's kept and shed requests, overwritten by the next
}

// Len returns the number of queued requests.
func (l *Lane[R]) Len() int { return len(l.queue) }

// Head returns the oldest queued request; the lane must not be empty.
func (l *Lane[R]) Head() R { return l.queue[0] }

// Offer is bounded-queue admission: r joins unless Limit requests already
// wait. It reports whether r was admitted.
func (l *Lane[R]) Offer(r R) bool {
	if l.Limit > 0 && len(l.queue) >= l.Limit {
		return false
	}
	l.queue = append(l.queue, r)
	return true
}

// Due says when the head batch should leave: at once if full (a whole Cap
// is waiting), otherwise at at, when the head request has waited MaxWait —
// never longer, because fill waiting spends the same budget queueing
// already consumed. An empty lane is never due.
func (l *Lane[R]) Due() (at float64, full bool) {
	if len(l.queue) == 0 {
		return math.Inf(1), false
	}
	return l.queue[0].ArrivedAt() + l.MaxWait, len(l.queue) >= l.Cap
}

// Take pops up to Cap requests at time now and sheds the ones that would
// miss the SLA at the popped batch's price: shedding only shrinks the batch,
// which only shortens the service time, so the check is conservative for
// the kept requests. It returns the kept batch and the shed requests, each
// in FIFO order (in one buffer the next Take overwrites), and the kept
// batch's service time — re-priced only if something was shed. An
// all-stale batch returns no kept requests and should not occupy the
// server. Take always pops: if pricing fails, the requests not yet shed
// come back in kept beside the error.
func (l *Lane[R]) Take(now float64, sm ServiceModel) (kept, shed []R, svc float64, err error) {
	n := min(len(l.queue), l.Cap)
	if n == 0 {
		return nil, nil, 0, nil
	}
	buf := slices.Grow(l.batch[:0], n)[:n]
	k, s := 0, n // kept fill buf from the front, shed from the back
	svc, err = sm.BatchSeconds(n)
	for _, r := range l.queue[:n] {
		if err == nil && l.SLA > 0 && Late(r.ArrivedAt(), now, svc, l.SLA) {
			s--
			buf[s] = r
		} else {
			buf[k] = r
			k++
		}
	}
	slices.Reverse(buf[s:])
	l.batch = buf
	l.queue = l.queue[:copy(l.queue, l.queue[n:])]
	if err == nil && k < n && k > 0 {
		svc, err = sm.BatchSeconds(k)
	}
	return buf[:k:k], buf[s:], svc, err
}

// Drain appends the queued requests to dst and empties the queue — for a
// driver whose replica dies or leaves with work still waiting.
func (l *Lane[R]) Drain(dst []R) []R {
	dst = append(dst, l.queue...)
	l.queue = l.queue[:0]
	return dst
}

// Scan is what one arrival scan produced.
type Scan struct {
	// Latencies are the served requests' arrival-to-completion times.
	Latencies []float64
	// Refused counts arrivals Offer turned away; Expired those Take shed.
	Refused, Expired int
	// Batches counts dispatches that served at least one request.
	Batches int
	// MaxQueue is the deepest the queue got at a dispatch point.
	MaxQueue int
	// Span is the time from the first arrival to the last completion.
	Span float64
}

// OpenLoop drives an empty lane with a seeded Poisson arrival stream of the
// given rate and length.
func OpenLoop(l *Lane[At], sm ServiceModel, rate float64, requests int, seed int64) (Scan, error) {
	if requests <= 0 {
		return Scan{}, fmt.Errorf("latency: non-positive request count %d", requests)
	}
	arr, err := workload.NewPoisson(rate, seed)
	if err != nil {
		return Scan{}, err
	}
	return Drive(l, workload.Collect(arr, requests), sm)
}

// Drive is the arrival-scan driver: it runs an empty lane over a sorted
// arrival slice with one server. The server picks up the head request when
// it is free, waits for the batch to fill as long as Due allows, admits
// everything that arrived by the dispatch point, and serves what Take keeps.
// Arrivals only matter at dispatch points, so no event calendar is needed.
func Drive(l *Lane[At], arrivals []float64, sm ServiceModel) (Scan, error) {
	run := Scan{Latencies: make([]float64, 0, len(arrivals))}
	next := 0 // next arrival to offer
	offerThrough := func(t float64) {
		for ; next < len(arrivals) && arrivals[next] <= t; next++ {
			if !l.Offer(At(arrivals[next])) {
				run.Refused++
			}
		}
	}
	var free float64 // when the server finishes its current batch
	for {
		if l.Len() == 0 {
			if next == len(arrivals) {
				break
			}
			// Idle server: jump to the next arrival.
			offerThrough(arrivals[next])
		}
		start := max(free, float64(l.Head()))
		offerThrough(start)
		for {
			at, full := l.Due()
			if full || at <= start {
				break
			}
			if next == len(arrivals) || arrivals[next] > at {
				start = at // waited the full window, batch still short
				break
			}
			start = arrivals[next]
			offerThrough(start)
		}
		run.MaxQueue = max(run.MaxQueue, l.Len())
		kept, shed, svc, err := l.Take(start, sm)
		if err != nil {
			return Scan{}, err
		}
		if svc <= 0 {
			return Scan{}, fmt.Errorf("latency: non-positive service time %v for batch %d", svc, len(kept)+len(shed))
		}
		run.Expired += len(shed)
		if len(kept) == 0 {
			continue // stale requests shed without occupying the server
		}
		free = start + svc
		for _, a := range kept {
			run.Latencies = append(run.Latencies, free-float64(a))
		}
		run.Batches++
	}
	if len(arrivals) > 0 {
		run.Span = free - arrivals[0]
	}
	return run, nil
}
