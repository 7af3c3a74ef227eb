package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced pass records spans from the harness's own files, around the
// calls into each layer of tpusim (layer = internal package name). Spans
// inside the program are a later change; until then a layer with no seam
// in the public API is measured by a probe (probes.go).

// span is one timed call into a layer.
type span struct {
	Layer, Name string
	Start, End  time.Duration // since the tracer's epoch
	Parent      int           // index of the span that caused it, -1 for a root
	Rep         int           // repetition the span belongs to
	Track       int           // 0 is the driving goroutine; closed-loop clients are 1..P
	// Leaves aggregates hot leaf calls made under this span (a service
	// model called a million times a rep): a count and a total instead of
	// a span each, so the trace stays small and the overhead low.
	Leaves map[string]*leaf
}

// leaf is the aggregate of one kind of hot call under one span.
type leaf struct {
	Calls int64
	Total time.Duration
}

// tracer is the in-memory span recorder. push on a nil tracer records
// nothing, so untraced runs pay one nil check per seam.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	rep   int
	// cur is the innermost open span of the driving goroutine; push/pop
	// and leafCall use it. Concurrent code passes parents explicitly.
	cur int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

// begin opens a span under an explicit parent and returns its index.
func (t *tracer) begin(parent, track int, layer, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Layer: layer, Name: name, Parent: parent, Rep: t.rep, Track: track,
		Start: time.Since(t.epoch), End: -1,
	})
	return len(t.spans) - 1
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int) {
	t.mu.Lock()
	t.spans[id].End = time.Since(t.epoch)
	t.mu.Unlock()
}

// record adds a finished span as a child of parent, on the parent's track.
func (t *tracer) record(parent int, layer, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Layer: layer, Name: name, Parent: parent, Rep: t.rep, Track: t.spans[parent].Track,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
}

// push opens a span on the driving goroutine under the current one; the
// returned function closes it.
func (t *tracer) push(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	id := t.begin(t.cur, 0, layer, name)
	prev := t.cur
	t.cur = id
	return func() {
		t.finish(id)
		t.cur = prev
	}
}

// leafCall charges one hot call that began at start to the current span of
// the driving goroutine.
func (t *tracer) leafCall(layer, name string, start time.Time) {
	d := time.Since(start)
	s := &t.spans[t.cur]
	if s.Leaves == nil {
		s.Leaves = map[string]*leaf{}
	}
	l := s.Leaves[layer+"."+name]
	if l == nil {
		l = &leaf{}
		s.Leaves[layer+"."+name] = l
	}
	l.Calls++
	l.Total += d
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans and aggregated leaves cover.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			p := spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				children[s.Parent] = append(children[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end time.Duration
		for _, c := range ivs {
			if c.hi <= end {
				continue
			}
			covered += c.hi - max(c.lo, end)
			end = c.hi
		}
		for _, l := range s.Leaves {
			covered += l.Total
		}
		self[i] = max(s.End-s.Start-covered, 0)
	}
	return self
}

// callStats is the total of one kind of call over a trace.
type callStats struct {
	Calls       int64
	Total, Self time.Duration
}

func (c callStats) meanMicros() float64 {
	if c.Calls == 0 {
		return 0
	}
	return float64(c.Total.Nanoseconds()) / 1e3 / float64(c.Calls)
}

// totals sums spans and leaves by "layer.name".
func totals(spans []span) map[string]callStats {
	out := map[string]callStats{}
	self := selfTimes(spans)
	for i, s := range spans {
		c := out[s.Layer+"."+s.Name]
		c.Calls++
		c.Total += s.End - s.Start
		c.Self += self[i]
		out[s.Layer+"."+s.Name] = c
		for k, l := range s.Leaves {
			c := out[k]
			c.Calls += l.Calls
			c.Total += l.Total
			c.Self += l.Total
			out[k] = c
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace events (load the file
// in chrome://tracing or Perfetto).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep}
		for k, l := range s.Leaves {
			args[k] = map[string]any{"calls": l.Calls, "us": float64(l.Total.Nanoseconds()) / 1e3}
		}
		events = append(events, event{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
