// Package obs is the stdlib-only telemetry subsystem: request-scoped span
// tracing with context propagation, a bounded in-memory span ring, a Chrome
// trace-event (Perfetto-loadable) exporter, an ops HTTP endpoint
// (/metrics, /healthz, /trace, pprof), and slog-based structured logging.
//
// The paper's methodology is built on observability — the real TPU exposes
// 106 performance counters "and if anything we would like a few more", and
// every table in the evaluation is derived from reading them. This package
// gives the reproduction the same property end to end: one inference is
// visible from serve.Submit through the runtime driver down to the
// simulated device's per-unit cycle occupancy, on one timeline.
//
// Design constraints:
//
//   - Disabled-path cost is near zero. Every entry point is nil-safe: a nil
//     *Tracer or nil *Span turns the whole API into cheap nil checks with
//     no allocation, so instrumented code needs no build tags or flags.
//   - Head-based sampling bounds overhead when enabled: the keep/drop
//     decision is made once per root span (per request) and inherited by
//     every child through the context, so traces are never half-recorded.
//   - Finished spans land in a fixed-capacity ring, allocated by chunk as
//     spans first reach it; a scraper or exporter reads a consistent
//     snapshot without ever blocking the serving path for more than a
//     mutex-protected copy. Attributes are typed and formatted only when
//     read, so recording a span formats nothing.
//
// Span identity is three numbers: Trace groups every span of one request,
// ID names the span, Parent nests it. Track is the display lane ("a thread"
// in Chrome trace terms): requests/MLP0, lane/MLP0, tpu0, tpu0/matrix, ...
package obs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Attr is one key/value annotation on a span. Its value is typed and is
// formatted only when read (Value), by the exporter or a test, so emitting
// a span formats nothing. It is 32 bytes: the key, then either a string's
// data pointer and length, or a number's bits behind a tag pointer — the
// representation log/slog.Value uses.
type Attr struct {
	Key string
	p   unsafe.Pointer // a string's data, or intTag / floatTag
	n   uint64         // the string's length, or the number's bits
}

// The tags that mark an Attr's value as a number. Only their addresses
// matter, and no string's data lies there: nothing else takes them, and
// String stores nil for the empty string, whose data pointer Go leaves
// unspecified.
var intTag, floatTag byte

// String builds a string attribute.
func String(k, v string) Attr {
	if v == "" {
		return Attr{Key: k}
	}
	return Attr{Key: k, p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Int64(k, int64(v)) }

// Int64 builds a 64-bit integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, p: unsafe.Pointer(&intTag), n: uint64(v)} }

// Float builds a float attribute with %g formatting.
func Float(k string, v float64) Attr {
	return Attr{Key: k, p: unsafe.Pointer(&floatTag), n: math.Float64bits(v)}
}

// Value renders the attribute's value: a string as it was given, an integer
// in decimal, a float as strconv.FormatFloat(v, 'g', -1, 64).
func (a Attr) Value() string {
	switch a.p {
	case unsafe.Pointer(&intTag):
		return strconv.FormatInt(int64(a.n), 10)
	case unsafe.Pointer(&floatTag):
		return strconv.FormatFloat(math.Float64frombits(a.n), 'g', -1, 64)
	}
	return unsafe.String((*byte)(a.p), a.n)
}

// SpanData is one finished span. It is plain data: safe to copy and export
// after the originating request is long gone.
type SpanData struct {
	// Trace groups all spans of one request.
	Trace uint64 `json:"trace"`
	// ID is the span's unique id within the tracer.
	ID uint64 `json:"id"`
	// Parent is the enclosing span's ID (0 for a root).
	Parent uint64 `json:"parent,omitempty"`
	// Name is the operation ("request", "queue", "run", "matrix_multiply").
	Name string `json:"name"`
	// Track is the display lane the span renders on (one Chrome trace tid).
	Track string `json:"track"`
	// Proc optionally groups the track into a named Chrome trace process
	// ("host0", "cluster"). Empty means the default single process, which
	// keeps single-host traces exactly as before; a multi-host cluster trace
	// sets one Proc per host so Perfetto shows each host as its own
	// process group with readable track names.
	Proc string `json:"proc,omitempty"`
	// Start and End are wall-clock times.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attrs are key/value annotations.
	Attrs []Attr `json:"attrs,omitempty"`
	// Links are span IDs from other traces whose completion fed this span
	// (e.g. every member request of a dispatched batch links to the batch
	// span). The exporter draws them as flow arrows.
	Links []uint64 `json:"links,omitempty"`
}

// A SpanGroup is n finished spans kept as one record: Tracer.EmitGroup
// stores the record, and each span is built from it only when the ring is
// read (Spans, and through it the exporters). A group holds values only —
// what sets each span apart and, once, what they share — and must not
// change once emitted. Its methods run under the tracer's lock, so they must
// not call the tracer.
type SpanGroup interface {
	// Len is the number of spans in the group.
	Len() int
	// Span builds span i, 0 <= i < Len(). The tracer sets its ID.
	Span(i int) SpanData
}

// Tracer collects finished spans into a bounded ring.
//
// The zero value is not usable; call NewTracer. A nil *Tracer is fully
// usable and records nothing — that is the disabled fast path.
type Tracer struct {
	idSeq   atomic.Uint64
	rootSeq atomic.Uint64
	sample  atomic.Int64 // keep 1 in sample roots; <= 1 keeps all
	dropped atomic.Uint64

	// clock stamps span start/end times; nil means time.Now. Set once via
	// SetClock before any span starts (see the data-race note there).
	clock func() time.Time

	// The ring: a queue of slots, each one span or one span group, holding
	// at most size spans. Slot i is chunks[i/spanChunk][i%spanChunk], and a
	// chunk is allocated when the ring first reaches it, so a large
	// capacity costs only the slots spans have filled. A slot keeps at
	// least one span, so size slots always suffice.
	mu     sync.Mutex
	chunks [][]slot
	size   int // capacity, in spans
	head   int // the oldest slot
	slots  int // slots in use
	kept   int // spans kept, at most size
}

// slot is one ring entry: a single span, or a group (g != nil) whose spans
// [lo, g.Len()) are still kept and whose span i has ID d.ID + i.
type slot struct {
	d  SpanData
	g  SpanGroup
	lo int
}

// len is the number of spans the slot keeps.
func (s *slot) len() int {
	if s.g == nil {
		return 1
	}
	return s.g.Len() - s.lo
}

// spanChunk is the ring's allocation unit, in slots.
const spanChunk = 1024

// DefaultCapacity is the span ring size when NewTracer is given n <= 0.
const DefaultCapacity = 4096

// NewTracer creates a tracer whose ring holds the last capacity finished
// spans (DefaultCapacity if capacity <= 0). The ring's chunks are
// allocated as spans first reach them.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{chunks: make([][]slot, (capacity+spanChunk-1)/spanChunk), size: capacity}
}

// SetSampleEvery keeps 1 in n root spans (head sampling: the decision is
// made at StartRoot and inherited by all children). n <= 1 keeps every
// root. Safe to change while serving.
func (t *Tracer) SetSampleEvery(n int) {
	if t == nil {
		return
	}
	t.sample.Store(int64(n))
}

// SetClock replaces the tracer's time source — the seam that lets a
// discrete-event simulation stamp spans with *virtual* time instead of
// wall-clock time, so an exported cluster trace lines up with the event
// log and renders identically across machines. nil restores time.Now.
//
// Call it before the first span starts, or after the last one ends: the
// clock is read without synchronization on the span hot path, so
// installing it mid-flight is a data race. A single-threaded simulator
// (the only caller that needs a virtual clock) satisfies this trivially.
func (t *Tracer) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.clock = now
}

// now reads the tracer's clock.
func (t *Tracer) now() time.Time {
	if t.clock != nil {
		return t.clock()
	}
	return time.Now()
}

// NextID mints a process-unique span id. Exposed so pre-timed spans built
// outside the Start/End lifecycle (device cycle timelines) can be stitched
// into a live trace.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.idSeq.Add(1)
}

// Emit appends one finished span to the ring, evicting the oldest when
// full. Safe for concurrent use; nil-safe.
func (t *Tracer) Emit(d SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.push(slot{d: d}, 1)
	t.mu.Unlock()
}

// EmitGroup appends a span group to the ring as one record. It mints the
// group's Len() span IDs, consecutive, at once, and counts every span
// against the ring's capacity: the ring keeps and evicts a group's spans
// exactly as it would Len() Emit calls. Safe for concurrent use; nil-safe.
func (t *Tracer) EmitGroup(g SpanGroup) {
	if t == nil {
		return
	}
	n := g.Len()
	if n <= 0 {
		return
	}
	last := t.idSeq.Add(uint64(n))
	t.mu.Lock()
	t.push(slot{d: SpanData{ID: last - uint64(n) + 1}, g: g}, n)
	t.mu.Unlock()
}

// push appends s, which holds n spans, evicting the oldest spans — whole
// slots, then the front of a group — until the ring holds at most size.
// Each whole slot is evicted once, so a push costs O(1) amortized.
// Called with t.mu held.
func (t *Tracer) push(s slot, n int) {
	for t.slots > 0 && t.kept+n > t.size {
		h := &t.chunks[t.head/spanChunk][t.head%spanChunk]
		excess, m := t.kept+n-t.size, h.len()
		if excess < m { // only a group keeps more than one span
			h.lo += excess
			t.evicted(excess)
			break
		}
		*h = slot{} // release the span's or the group's memory
		t.evicted(m)
		t.slots--
		if t.head++; t.head == t.size {
			t.head = 0
		}
	}
	if excess := n - t.size; excess > 0 { // a group larger than the ring
		s.lo += excess
		t.dropped.Add(uint64(excess))
		n = t.size
	}
	i := t.head + t.slots
	if i >= t.size {
		i -= t.size
	}
	c := &t.chunks[i/spanChunk]
	if *c == nil {
		*c = make([]slot, min(spanChunk, t.size-i/spanChunk*spanChunk))
	}
	(*c)[i%spanChunk] = s
	t.slots++
	t.kept += n
}

// evicted accounts n spans the ring dropped. Called with t.mu held.
func (t *Tracer) evicted(n int) {
	t.kept -= n
	t.dropped.Add(uint64(n))
}

// Spans returns the ring's contents oldest-first, building each group's
// spans. The slice is a copy.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, t.kept)
	for k, i := 0, t.head; k < t.slots; k++ {
		s := &t.chunks[i/spanChunk][i%spanChunk]
		if s.g == nil {
			out = append(out, s.d)
		} else {
			for j := s.lo; j < s.g.Len(); j++ {
				d := s.g.Span(j)
				d.ID = s.d.ID + uint64(j)
				out = append(out, d)
			}
		}
		if i++; i == t.size {
			i = 0
		}
	}
	return out
}

// Dropped reports how many spans were evicted from the ring.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Span is one in-progress operation. All methods are nil-safe; a nil span
// is the not-recording span. A span is owned by one goroutine at a time —
// ownership may transfer (e.g. a queued request's span is ended by the
// dispatcher) as long as the handoff happens-before the next method call,
// which a channel send/receive provides.
type Span struct {
	t *Tracer
	d SpanData
}

// ctxKey carries the active span through a context.
type ctxKey struct{}

// FromContext returns the active span, or nil if none is recording.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextWith returns ctx with s as the active span.
func ContextWith(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// StartRoot begins a new trace (one request). It makes the head-sampling
// decision: an unsampled request returns (ctx, nil) and every descendant
// Start call is a no-op. A nil tracer records nothing.
func (t *Tracer) StartRoot(ctx context.Context, name, track string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	seq := t.rootSeq.Add(1)
	if n := t.sample.Load(); n > 1 && (seq-1)%uint64(n) != 0 {
		return ctx, nil
	}
	s := &Span{t: t, d: SpanData{
		Trace: seq,
		ID:    t.NextID(),
		Name:  name,
		Track: track,
		Start: t.now(),
		Attrs: attrs,
	}}
	return ContextWith(ctx, s), s
}

// Start begins a child of the active span in ctx. If no span is recording
// (nil tracer, unsampled request, or plain context) it returns (ctx, nil).
func Start(ctx context.Context, name, track string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := &Span{t: parent.t, d: SpanData{
		Trace:  parent.d.Trace,
		ID:     parent.t.NextID(),
		Parent: parent.d.ID,
		Name:   name,
		Track:  track,
		Start:  parent.t.now(),
		Attrs:  attrs,
	}}
	return ContextWith(ctx, s), s
}

// Recording reports whether the span records anything.
func (s *Span) Recording() bool { return s != nil }

// Tracer returns the span's tracer (nil for a not-recording span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.t
}

// TraceID returns the span's trace id (0 if not recording).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.d.Trace
}

// ID returns the span id (0 if not recording).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.d.ID
}

// SetProc assigns the span's Chrome trace process group (SpanData.Proc).
func (s *Span) SetProc(proc string) {
	if s == nil {
		return
	}
	s.d.Proc = proc
}

// SetAttr annotates the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.d.Attrs = append(s.d.Attrs, attrs...)
}

// Link records that span id (usually from another trace) fed this span.
func (s *Span) Link(id uint64) {
	if s == nil || id == 0 {
		return
	}
	s.d.Links = append(s.d.Links, id)
}

// End finishes the span and emits it to the tracer's ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.d.End = s.t.now()
	s.t.Emit(s.d)
}

// RequestID formats a request sequence number as a stable log/trace id.
func RequestID(seq uint64) string { return fmt.Sprintf("req-%06d", seq) }
