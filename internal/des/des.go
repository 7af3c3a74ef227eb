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
// event. The handler and its word wait in a slab slot that the loop reuses;
// the calendar threads slot numbers through a pointer-free (key, next slot)
// array beside the slab, so the collector never scans it. At, After and
// Every take a plain func() and are sugar over the same Schedule through
// Func, for the rare controller events where a closure reads better.
//
// The calendar is a monotone radix heap. An event's key is its time's bit
// pattern, which orders as the time since no event is scheduled before now
// or below zero. Bucket i > 0 lists the keys whose highest bit differing
// from last (the key firing now) is bit i−1, bucket 0 the keys equal to it.
// The next event heads bucket 0 or, once that is empty, has the smallest
// key of the first occupied bucket, which then spreads into those below.
// An event moves down at most 63 times, one relink each, however deep the
// calendar — a fleet's holds a thousand or more fill timers — and the
// buckets own no storage: the link array grows with the slab.
//
// Determinism is the core contract. Two events at the same virtual time
// fire in the order they were scheduled: a bucket is a list appended to in
// schedule order that spreads, in that order, into buckets that are empty,
// so equal keys, which always share a bucket, stay first in, first out. A
// seeded simulation replays byte-for-byte — the property the cluster golden
// snapshots and failover replay tests pin.
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Handler is what an event fires: an object that already exists, given the
// one word the firing needs (a request key, a generation to check).
type Handler interface{ Fire(arg uint64) }

// Func adapts a plain func() to Handler. A func value is pointer-shaped, so
// the conversion into the interface does not allocate either; the closure
// itself, if the caller builds one per event, still does.
type Func func()

// Fire calls the function; arg is ignored.
func (f Func) Fire(uint64) { f() }

// link is a queued event's key and the slot after it in its bucket.
type link struct {
	key  uint64
	next uint32
}

// bucket is a FIFO list of slots through Loop.links and its smallest key.
type bucket struct {
	min        uint64
	head, tail uint32
}

// action is what an event fires.
type action struct {
	h   Handler
	arg uint64
}

// Loop is a single-threaded discrete-event loop. The zero value is ready to
// use at virtual time zero. Loops are not safe for concurrent use: all
// scheduling happens from the goroutine driving RunUntil (or before the
// run starts), which is what makes the event order — and therefore the
// simulation — deterministic.
type Loop struct {
	buckets    [64]bucket // by the highest bit a key differs from last in; 0: equal
	occupied   uint64     // bit i: buckets[i] is not empty
	last       uint64     // the key of the event firing now, or last fired
	pending    int
	maxPending int      // Pending's high-water mark, read by des_test.go's MaxPending
	slots      []action // by event slot; a free one is zero
	links      []link   // by event slot
	free       []uint32 // free slots
	now        float64
	processed  uint64
}

// Now returns the current virtual time in seconds.
func (l *Loop) Now() float64 { return l.now }

// Processed returns the number of events executed so far — the
// events-per-wall-second numerator the cluster benchmark reports.
func (l *Loop) Processed() uint64 { return l.processed }

// Pending returns the number of scheduled, not-yet-fired events.
func (l *Loop) Pending() int { return l.pending }

// Schedule queues h.Fire(arg) at absolute virtual time t — the one
// scheduling primitive; At, After and Every are sugar over it. Scheduling in
// the past is a programming error worth failing loudly on: a silent clamp
// would reorder cause and effect. The guard is written so that a NaN time,
// which would break the order of every later event, panics too; +Inf is
// legal and simply never fires under RunUntil. −0 is queued as 0, whose
// bits sort first rather than after +Inf.
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
		l.links = append(l.links, link{})
	}
	l.slots[slot] = action{h, arg}
	key := math.Float64bits(t + 0) // −0 + 0 is 0
	l.links[slot].key = key
	l.push(bits.Len64(key^l.last), slot, key)
	if l.pending++; l.pending > l.maxPending {
		l.maxPending = l.pending
	}
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
	if !(d > 0) {
		panic(fmt.Sprintf("des: tick interval %v is not a positive number", d))
	}
	var tick func()
	tick = func() {
		fn()
		l.After(d, tick)
	}
	l.After(d, tick)
}

// RunUntil executes every event scheduled at or before deadline, then
// advances the clock to the deadline. Events scheduled beyond it stay
// queued, so a caller can interleave virtual-time segments with external
// actions (kill a host, inspect a snapshot) and resume.
func (l *Loop) RunUntil(deadline float64) {
	for l.step(deadline) {
	}
	if deadline > l.now {
		l.now = deadline
	}
}

// push appends slot, whose key is key, to bucket i.
func (l *Loop) push(i int, slot uint32, key uint64) {
	b := &l.buckets[i]
	if l.occupied&(1<<i) == 0 {
		b.min, b.head = key, slot
		l.occupied |= 1 << i
	} else {
		b.min = min(b.min, key)
		l.links[b.tail].next = slot
	}
	b.tail = slot
}

// step fires the earliest event if it is due at or before deadline and
// reports whether it did. last moves only to the key of the event about to
// fire: an event left queued past the deadline must not become the base,
// or a later Schedule between now and it would sort below last.
// Buckets above 0 know their smallest key, so the check reads no event.
func (l *Loop) step(deadline float64) bool {
	if l.occupied&1 == 0 {
		if l.occupied == 0 {
			return false
		}
		i := bits.TrailingZeros64(l.occupied)
		b := l.buckets[i]
		if !(math.Float64frombits(b.min) <= deadline) {
			return false
		}
		l.last = b.min
		l.occupied &^= 1 << i
		for s := b.head; ; {
			k, next := l.links[s].key, l.links[s].next
			l.push(bits.Len64(k^b.min), s, k)
			if s == b.tail {
				break
			}
			s = next
		}
	} else if !(math.Float64frombits(l.last) <= deadline) {
		return false
	}
	slot := l.buckets[0].head
	if slot == l.buckets[0].tail {
		l.occupied &^= 1
	} else {
		l.buckets[0].head = l.links[slot].next
	}
	l.pending--
	a := l.slots[slot]
	l.slots[slot] = action{} // release the handler
	l.free = append(l.free, slot)
	l.now = math.Float64frombits(l.links[slot].key)
	l.processed++
	a.h.Fire(a.arg)
	return true
}
