// Package des is the discrete-event core the cluster simulator runs on.
// The paper's deployment story — "datacenters need responses in
// milliseconds" from fleets sized against latency-bound demand — only shows
// its interesting behavior (placement, routing, failover, autoscaling) at
// pod scale, and pod scale is unaffordable in wall-clock time: a thousand
// simulated devices sleeping out real service times would take hours per
// run. The event loop here replaces sleeps with a time-ordered calendar:
// every actor schedules a firing at a virtual instant, the loop pops events
// in (time, insertion) order, and ten virtual seconds of a thousand-device
// fleet execute in well under a wall-clock second.
//
// An event is a Handler plus one uint64 word: an actor that schedules itself
// (a pointer is free to put in an interface) with the word it needs — a
// request key, a generation to check against — costs no allocation per
// event. The binary heap holds only (time, seq, slot), no pointers, so the
// collector never scans it and a sift takes no write barrier; the handler
// and its word wait in a slab slot that the loop reuses. At, After and Every
// take a plain func() and are sugar over the same Schedule through Func, for
// the rare controller events where a closure reads better than a type.
//
// Determinism is the core contract. Two events at the same virtual time
// fire in the order they were scheduled (a monotone sequence number breaks
// ties), so a seeded simulation replays byte-for-byte — the property the
// cluster golden snapshots and failover replay tests pin.
package des

import "fmt"

// Handler is what an event fires: an object that already exists, given the
// one word the firing needs (a request key, a generation to check).
type Handler interface{ Fire(arg uint64) }

// Func adapts a plain func() to Handler. A func value is pointer-shaped, so
// the conversion into the interface does not allocate either; the closure
// itself, if the caller builds one per event, still does.
type Func func()

// Fire calls the function; arg is ignored.
func (f Func) Fire(uint64) { f() }

// event is one scheduled firing: when, in what order, and the slab slot
// holding what it fires.
type event struct {
	at   float64
	seq  uint64
	slot uint32
}

// action is what an event fires.
type action struct {
	h   Handler
	arg uint64
}

// before orders the calendar by (time, schedule order).
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Loop is a single-threaded discrete-event loop. The zero value is ready to
// use at virtual time zero. Loops are not safe for concurrent use: all
// scheduling happens from the goroutine driving Run/RunUntil (or before the
// run starts), which is what makes the event order — and therefore the
// simulation — deterministic.
type Loop struct {
	cal       []event  // binary min-heap on (at, seq)
	slots     []action // by event slot; a free one is zero
	free      []uint32 // free slots
	seq       uint64
	now       float64
	processed uint64
}

// Now returns the current virtual time in seconds.
func (l *Loop) Now() float64 { return l.now }

// Processed returns the number of events executed so far — the
// events-per-wall-second numerator the cluster benchmark reports.
func (l *Loop) Processed() uint64 { return l.processed }

// Pending returns the number of scheduled, not-yet-fired events.
func (l *Loop) Pending() int { return len(l.cal) }

// Schedule queues h.Fire(arg) at absolute virtual time t — the one
// scheduling primitive; At, After and Every are sugar over it. Scheduling in
// the past is a programming error worth failing loudly on: a silent clamp
// would reorder cause and effect. The guard is written so that a NaN time,
// which would sit in the heap and break the order of every later event,
// panics too; +Inf is legal and simply never fires under RunUntil.
func (l *Loop) Schedule(t float64, h Handler, arg uint64) {
	if !(t >= l.now) {
		panic(fmt.Sprintf("des: scheduling at %v before now %v", t, l.now))
	}
	var slot uint32
	if n := len(l.free); n > 0 {
		slot = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		slot = uint32(len(l.slots))
		l.slots = append(l.slots, action{})
	}
	l.slots[slot] = action{h, arg}
	l.seq++
	l.cal = append(l.cal, event{at: t, seq: l.seq, slot: slot})
	// Sift the new event up to its place.
	c := l.cal
	i := len(c) - 1
	e := c[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&c[parent]) {
			break
		}
		c[i] = c[parent]
		i = parent
	}
	c[i] = e
}

// At schedules fn at absolute virtual time t.
func (l *Loop) At(t float64, fn func()) { l.Schedule(t, Func(fn), 0) }

// After schedules fn d seconds from now.
func (l *Loop) After(d float64, fn func()) { l.Schedule(l.now+d, Func(fn), 0) }

// Every schedules fn every d seconds, first firing d seconds from now. The
// chain is infinite — RunUntil's deadline bounds what actually fires — and
// fn runs before the next tick is scheduled, so a tick sees every event at
// or before its own instant that was scheduled ahead of it. This is the
// shape both the autoscaler and the telemetry sampler need: a periodic
// observer riding the same deterministic calendar as the actors it watches.
func (l *Loop) Every(d float64, fn func()) {
	if d <= 0 {
		panic(fmt.Sprintf("des: non-positive tick interval %v", d))
	}
	var tick func()
	tick = func() {
		fn()
		l.After(d, tick)
	}
	l.After(d, tick)
}

// Run executes events until the calendar is empty.
func (l *Loop) Run() {
	for len(l.cal) > 0 {
		l.step()
	}
}

// RunUntil executes every event scheduled at or before deadline, then
// advances the clock to the deadline. Events scheduled beyond it stay
// queued, so a caller can interleave virtual-time segments with external
// actions (kill a host, inspect a snapshot) and resume.
func (l *Loop) RunUntil(deadline float64) {
	for len(l.cal) > 0 && l.cal[0].at <= deadline {
		l.step()
	}
	if deadline > l.now {
		l.now = deadline
	}
}

// step pops and fires the earliest event.
func (l *Loop) step() {
	c := l.cal
	e := c[0]
	n := len(c) - 1
	last := c[n]
	l.cal = c[:n]
	// Sift the former last event down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && c[r].before(&c[child]) {
			child = r
		}
		if !c[child].before(&last) {
			break
		}
		c[i] = c[child]
		i = child
	}
	if n > 0 {
		c[i] = last
	}
	a := l.slots[e.slot]
	l.slots[e.slot] = action{} // release the handler
	l.free = append(l.free, e.slot)
	l.now = e.at
	l.processed++
	a.h.Fire(a.arg)
}
