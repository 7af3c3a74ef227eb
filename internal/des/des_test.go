package des

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// Run executes events until the calendar is empty. Unlike RunUntil(+Inf),
// it leaves the clock at the last event's instant.
func (l *Loop) Run() {
	for l.step(math.Inf(1)) {
	}
}

// TestOrdering: events fire in time order regardless of scheduling order.
func TestOrdering(t *testing.T) {
	var l Loop
	var got []int
	l.At(3, func() { got = append(got, 3) })
	l.At(1, func() { got = append(got, 1) })
	l.At(2, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if l.Now() != 3 {
		t.Fatalf("Now = %v, want 3", l.Now())
	}
	if l.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3", l.Processed())
	}
}

// TestFIFOTieBreak: same-instant events fire in scheduling order — the
// determinism contract the cluster replay tests lean on.
func TestFIFOTieBreak(t *testing.T) {
	var l Loop
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		l.At(1, func() { got = append(got, i) })
	}
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie at index %d fired as %d, want FIFO", i, got[i])
		}
	}
}

// TestCascade: an event can schedule further events, including at its own
// instant (they run after every already-queued same-instant event).
func TestCascade(t *testing.T) {
	var l Loop
	var got []string
	l.At(1, func() {
		got = append(got, "a")
		l.After(0, func() { got = append(got, "c") })
	})
	l.At(1, func() { got = append(got, "b") })
	l.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("cascade fired %v, want [a b c]", got)
	}
}

// TestRunUntil: only events inside the horizon fire, and the clock lands on
// the horizon so segments compose.
func TestRunUntil(t *testing.T) {
	var l Loop
	fired := map[float64]bool{}
	for _, at := range []float64{0.5, 1.5, 2.5} {
		at := at
		l.At(at, func() { fired[at] = true })
	}
	l.RunUntil(2)
	if !fired[0.5] || !fired[1.5] || fired[2.5] {
		t.Fatalf("fired %v after RunUntil(2)", fired)
	}
	if l.Now() != 2 {
		t.Fatalf("Now = %v, want 2", l.Now())
	}
	if l.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", l.Pending())
	}
	l.RunUntil(3)
	if !fired[2.5] {
		t.Fatal("resumed segment did not fire the queued event")
	}
}

// TestEvery: the recurring tick fires on its period inside the horizon,
// runs its body before scheduling the next tick, and a same-instant actor
// event scheduled earlier still fires first (FIFO tie-break).
func TestEvery(t *testing.T) {
	var l Loop
	var ticks []float64
	l.At(0.5, func() {}) // an actor event between ticks
	l.Every(0.25, func() { ticks = append(ticks, l.Now()) })
	l.RunUntil(1)
	want := []float64{0.25, 0.5, 0.75, 1}
	if len(ticks) != len(want) {
		t.Fatalf("Every(0.25) fired %d times in [0,1], want %d: %v", len(ticks), len(want), ticks)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
	// The chain keeps going across a resumed segment.
	l.RunUntil(1.5)
	if len(ticks) != 6 {
		t.Fatalf("resumed segment reached %d ticks, want 6", len(ticks))
	}
}

// TestEveryBadInterval: a non-positive period would busy-loop the calendar,
// and a NaN one would reach Schedule as a NaN time. Every rejects both
// itself, with its own message.
func TestEveryBadInterval(t *testing.T) {
	for _, d := range []float64{0, -1, math.NaN()} {
		func() {
			var l Loop
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "tick interval") {
					t.Errorf("Every(%v) panicked with %q, want the tick interval message", d, msg)
				}
			}()
			l.Every(d, func() {})
		}()
	}
}

// TestPastSchedulingPanics: scheduling before now is a loud failure.
func TestPastSchedulingPanics(t *testing.T) {
	var l Loop
	l.At(2, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	l.At(1, func() {})
}

// TestNaNSchedulingPanics: NaN compares false with everything, so a t < now
// guard would let it into the calendar, where it breaks the time order of
// every later event. It must fail as loudly as the past does.
func TestNaNSchedulingPanics(t *testing.T) {
	var l Loop
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	l.At(math.NaN(), func() {})
}

// TestInfSchedulingNeverFires: +Inf is a legal "never" — it stays queued
// behind every finite horizon and does not disturb earlier events.
func TestInfSchedulingNeverFires(t *testing.T) {
	var l Loop
	fired := 0
	l.At(math.Inf(1), func() { t.Error("the +Inf event fired") })
	l.At(1, func() { fired++ })
	l.RunUntil(math.MaxFloat64)
	if fired != 1 || l.Pending() != 1 {
		t.Fatalf("fired %d finite events with %d pending, want 1 and 1", fired, l.Pending())
	}
}

// TestNegativeZeroIsZero: −0 passes the t >= now guard at time zero, but
// its bits sort after +Inf. It is queued as 0: first, and FIFO with the
// events at 0 around it.
func TestNegativeZeroIsZero(t *testing.T) {
	var l Loop
	var got []int
	negZero := math.Copysign(0, -1)
	l.At(math.Inf(1), func() { got = append(got, 4) })
	l.At(1, func() { got = append(got, 3) })
	l.At(negZero, func() { got = append(got, 0) })
	l.At(0, func() { got = append(got, 1) })
	l.At(negZero, func() { got = append(got, 2) })
	l.RunUntil(1)
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestMaxPending: the high-water depth survives the calendar draining.
func TestMaxPending(t *testing.T) {
	var l Loop
	for i := 0; i < 5; i++ {
		l.At(float64(i), func() {})
	}
	l.RunUntil(2)
	l.At(3, func() {})
	l.Run()
	if l.Pending() != 0 || l.MaxPending() != 5 {
		t.Fatalf("Pending %d, MaxPending %d, want 0 and 5", l.Pending(), l.MaxPending())
	}
}

// TestRandomizedOrder: a fuzz-ish shuffle of schedule times still fires in
// nondecreasing time order.
func TestRandomizedOrder(t *testing.T) {
	var l Loop
	rng := rand.New(rand.NewSource(7))
	var got []float64
	for i := 0; i < 5000; i++ {
		at := rng.Float64() * 100
		l.At(at, func() { got = append(got, at) })
	}
	l.Run()
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("time went backwards at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// oracleLoop is the calendar this package used to run on — container/heap
// over boxed events, one closure per event — kept as the reference the
// radix calendar is checked against.
type oracleLoop struct {
	cal oracleCalendar
	seq uint64
	now float64
}

type oracleEvent struct {
	at  float64
	seq uint64
	fn  func()
}

type oracleCalendar []oracleEvent

func (c oracleCalendar) Len() int { return len(c) }
func (c oracleCalendar) Less(i, j int) bool {
	if c[i].at != c[j].at {
		return c[i].at < c[j].at
	}
	return c[i].seq < c[j].seq
}
func (c oracleCalendar) Swap(i, j int) { c[i], c[j] = c[j], c[i] }
func (c *oracleCalendar) Push(x any)   { *c = append(*c, x.(oracleEvent)) }
func (c *oracleCalendar) Pop() any {
	old := *c
	n := len(old)
	e := old[n-1]
	*c = old[:n-1]
	return e
}

func (l *oracleLoop) Now() float64 { return l.now }

func (l *oracleLoop) At(t float64, fn func()) {
	l.seq++
	heap.Push(&l.cal, oracleEvent{at: t, seq: l.seq, fn: fn})
}

func (l *oracleLoop) Schedule(t float64, h Handler, arg uint64) {
	l.At(t, func() { h.Fire(arg) })
}

func (l *oracleLoop) RunUntil(deadline float64) {
	for len(l.cal) > 0 && l.cal[0].at <= deadline {
		e := heap.Pop(&l.cal).(oracleEvent)
		l.now = e.at
		e.fn()
	}
	if deadline > l.now {
		l.now = deadline
	}
}

// calendarAPI is what a random program drives: the Loop or its oracle.
type calendarAPI interface {
	Now() float64
	At(t float64, fn func())
	Schedule(t float64, h Handler, arg uint64)
	RunUntil(deadline float64)
}

type firing struct {
	at float64
	id uint64 // schedule order, which is the oracle's seq
}

// program is one seeded random workload: events on a coarse time grid (so
// instants collide), scheduled half through At and half through Schedule,
// each of which may schedule more from inside its firing — at Now() and
// later — across several RunUntil segments with fresh events in between.
type program struct {
	l      calendarAPI
	rng    *rand.Rand
	nextID uint64
	budget int
	log    []firing
}

func (p *program) schedule(t float64) {
	p.nextID++
	p.budget--
	id := p.nextID
	if p.rng.Intn(2) == 0 {
		p.l.At(t, func() { p.Fire(id) })
	} else {
		p.l.Schedule(t, p, id)
	}
}

func (p *program) Fire(id uint64) {
	p.log = append(p.log, firing{p.l.Now(), id})
	for k := p.rng.Intn(3); k > 0 && p.budget > 0; k-- {
		p.schedule(p.l.Now() + 0.25*float64(p.rng.Intn(4)))
	}
}

func runProgram(seed int64, l calendarAPI) []firing {
	p := &program{l: l, rng: rand.New(rand.NewSource(seed)), budget: 400}
	for seg := 0; seg < 4; seg++ {
		for k := 5 + p.rng.Intn(20); k > 0; k-- {
			p.schedule(l.Now() + 0.25*float64(p.rng.Intn(12)))
		}
		l.RunUntil(l.Now() + 2*p.rng.Float64())
	}
	l.RunUntil(math.MaxFloat64)
	return p.log
}

// TestDifferentialAgainstHeapOracle: the calendar fires exactly the
// (time, seq) sequence the container/heap calendar does.
func TestDifferentialAgainstHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 250; seed++ {
		got := runProgram(seed, &Loop{})
		want := runProgram(seed, &oracleLoop{})
		if len(got) != len(want) || len(got) < 20 {
			t.Fatalf("seed %d: fired %d events, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, oracle %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// grid is the deep programs' time step: a power of two, so times on it are
// exact and hundreds of events share an instant.
const grid = 1.0 / 1024

// deepProgram drives a calendar the way a fleet does: thousands of events
// pending at once, most on a coarse grid so runs of identical times are
// long, a few off it, a few at +Inf, each firing rescheduling one event —
// sometimes at its own instant — until the budget is spent.
type deepProgram struct {
	l      calendarAPI
	rng    *rand.Rand
	nextID uint64
	budget int
	log    []firing
}

func (p *deepProgram) schedule(t float64) {
	p.nextID++
	id := p.nextID
	if p.rng.Intn(2) == 0 {
		p.l.At(t, func() { p.Fire(id) })
	} else {
		p.l.Schedule(t, p, id)
	}
}

func (p *deepProgram) Fire(id uint64) {
	now := p.l.Now()
	p.log = append(p.log, firing{now, id})
	if p.budget == 0 {
		return
	}
	p.budget--
	switch r := p.rng.Intn(16); {
	case r == 0:
		p.schedule(now)
	case r == 1:
		p.schedule(now + 64*grid*p.rng.Float64())
	default:
		p.schedule(now + grid*float64(1+p.rng.Intn(64)))
	}
}

// gap returns a deadline between grid points past now, so it falls after
// the instant that fired last and short of the next grid instant, and
// schedules into the gap after RunUntil(gap) — the Schedule that a calendar
// rebased onto an event beyond its deadline would misorder.
func (p *deepProgram) gap() float64 {
	return grid * (math.Floor(p.l.Now()/grid) + float64(p.rng.Intn(4)) + 0.5)
}

func (p *deepProgram) fillGap() {
	p.schedule(p.l.Now())
	p.schedule(p.l.Now() + grid/4)
}

func runDeep(seed int64, l calendarAPI) []firing {
	p := &deepProgram{l: l, rng: rand.New(rand.NewSource(seed)), budget: 20000}
	for i := 0; i < 2000; i++ {
		p.schedule(grid * float64(p.rng.Intn(64)))
	}
	for i := 0; i < 4; i++ {
		p.schedule(math.Inf(1))
	}
	for seg := 0; seg < 100; seg++ {
		l.RunUntil(p.gap())
		p.fillGap()
	}
	l.RunUntil(math.Inf(1))
	return p.log
}

func sameFirings(t *testing.T, what string, got, want []firing) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: fired %d events, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: firing %d is %+v, oracle %+v", what, i, got[i], want[i])
		}
	}
}

// TestDeepCalendarAgainstHeapOracle: at a fleet's depth — 2000 events
// pending, long runs of one instant, +Inf events, and RunUntil deadlines
// between the last instant fired and the next, each followed by Schedules
// into that gap — the calendar fires the oracle's sequence.
func TestDeepCalendarAgainstHeapOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		l := &Loop{}
		got := runDeep(seed, l)
		sameFirings(t, fmt.Sprintf("seed %d", seed), got, runDeep(seed, &oracleLoop{}))
		if l.MaxPending() < 2000 || l.Pending() != 0 {
			t.Fatalf("seed %d: calendar at most %d deep, %d left, want >= 2000 and 0", seed, l.MaxPending(), l.Pending())
		}
	}
}

// runOps is FuzzCalendar's program: each byte of ops schedules (on the
// grid, off it, at now, at +Inf, or at −0 while now is 0) or runs to a
// deadline between grid points and fills the gap after it.
func runOps(seed int64, ops []byte, l calendarAPI) []firing {
	p := &deepProgram{l: l, rng: rand.New(rand.NewSource(seed)), budget: 4 * len(ops)}
	for _, op := range ops {
		now, v := l.Now(), float64(op>>3)
		switch op & 7 {
		case 0, 1, 2:
			p.schedule(now + grid*v)
		case 3:
			p.schedule(now + grid*v*p.rng.Float64())
		case 4:
			p.schedule(now)
		case 5:
			if now == 0 {
				p.schedule(math.Copysign(0, -1))
			} else {
				p.schedule(math.Inf(1))
			}
		default:
			l.RunUntil(p.gap())
			p.fillGap()
		}
	}
	l.RunUntil(math.Inf(1))
	return p.log
}

// FuzzCalendar: any schedule/run program fires the oracle's sequence.
func FuzzCalendar(f *testing.F) {
	f.Add(int64(1), []byte{0, 8, 16, 6, 4, 5, 3, 255, 7})
	f.Add(int64(2), []byte{5, 5, 0, 0, 6, 13, 77, 255, 254, 14})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		sameFirings(t, "program", runOps(seed, ops, &Loop{}), runOps(seed, ops, &oracleLoop{}))
	})
}

// ticker is a pointer handler that reschedules itself: the shape of every
// per-request event in the cluster simulator.
type ticker struct{ l *Loop }

func (tk *ticker) Fire(n uint64) { tk.l.Schedule(tk.l.Now()+1, tk, n+1) }

// TestSteadyStateAllocs: at a fleet calendar's depth (2000 events, pairs
// sharing an instant), a fire-and-reschedule cycle allocates nothing — not
// for a pointer handler with an arg, and not for After with a func() built
// once — and the rescheduled event takes the slot its firing freed, so the
// slab does not grow.
func TestSteadyStateAllocs(t *testing.T) {
	const depth = 2000
	var l Loop
	tk := &ticker{l: &l}
	var tick func()
	tick = func() { l.After(1, tick) }
	for i := 0; i < depth/2; i++ {
		l.Schedule(float64(i)/depth, tk, 0)
		l.After(float64(i)/depth, tick)
	}
	fire := func() { l.step(math.Inf(1)) }
	if avg := testing.AllocsPerRun(5*depth, fire); avg != 0 {
		t.Fatalf("steady Schedule/step cycle allocates %v objects per event, want 0", avg)
	}
	if len(l.slots) != depth || len(l.links) != depth || len(l.free) != 0 || l.Pending() != depth {
		t.Fatalf("%d slots, %d links, %d free, %d pending after the cycle, want %d, %d, 0 and %d",
			len(l.slots), len(l.links), len(l.free), l.Pending(), depth, depth, depth)
	}
}

// counter counts its firings.
type counter struct{ fired int }

func (c *counter) Fire(uint64) { c.fired++ }

// TestFiredSlotCleared: once an event fires, its slot no longer holds the
// handler (the calendar must not keep a fired actor alive) and is free for
// the next Schedule.
func TestFiredSlotCleared(t *testing.T) {
	var l Loop
	c := &counter{}
	for i := 0; i < 8; i++ {
		l.Schedule(float64(i), c, uint64(i))
	}
	l.RunUntil(3.5)
	if c.fired != 4 || len(l.free) != 4 {
		t.Fatalf("fired %d with %d free slots, want 4 and 4", c.fired, len(l.free))
	}
	for _, s := range l.free {
		if l.slots[s] != (action{}) {
			t.Fatalf("fired slot %d still holds %+v", s, l.slots[s])
		}
	}
	l.Run()
	for i, a := range l.slots {
		if a != (action{}) {
			t.Fatalf("slot %d holds %+v after the calendar drained", i, a)
		}
	}
	l.Schedule(l.Now(), c, 0)
	if len(l.slots) != 8 {
		t.Fatalf("a Schedule after the drain grew the slab to %d slots, want 8", len(l.slots))
	}
}

// MaxPending returns the most events the calendar has held at once.
func (l *Loop) MaxPending() int { return l.maxPending }
