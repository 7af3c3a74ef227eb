// Chrome trace-event JSON exporter. The output is the "JSON array format"
// of the Trace Event specification, loadable by Perfetto (ui.perfetto.dev)
// and chrome://tracing: a flat array of events with ph "X" (complete
// slice), "M" (metadata naming processes/threads), and "s"/"f" (flow
// arrows linking one request's spans across tracks).
//
// The writer streams: each event is appended to a buffered writer's spare
// buffer and written as it is built, so an export holds no event objects
// and no whole-document copy. The bytes are those of
// json.MarshalIndent(events, "", " ") over one map per event: every object
// has its keys in sorted order, strings are escaped exactly as
// encoding/json escapes them, and numbers are decimal integers.
package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteChromeTrace writes spans as Chrome trace-event JSON to w. Tracks
// become threads of one process (tid assigned in sorted-track order, with
// thread_sort_index metadata so Perfetto lists them in the same order);
// parent/child edges that cross tracks and explicit span Links become flow
// arrows, so one request reads as a connected path from its serve track
// through the lane track down to the device's unit tracks.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	l := newChromeLayout(spans)
	cw := chromeWriter{w: bufio.NewWriterSize(w, 64<<10)}
	cw.w.WriteString("[\n")
	for _, p := range l.procs {
		pid := l.pids[p]
		name := p
		if name == "" {
			name = "tpusim"
		}
		cw.meta("process_name", pid, 0, name, 0)
		cw.meta("process_sort_index", pid, 0, "", pid)
		for _, tr := range l.byProc[p] {
			tid := l.tids[trackKey{p, tr}]
			cw.meta("thread_name", pid, tid, tr, 0)
			cw.meta("thread_sort_index", pid, tid, "", tid)
		}
	}

	byID := make(map[uint64]*SpanData, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		pid, tid := l.pids[s.Proc], l.tids[trackKey{s.Proc, s.Track}]
		cw.slice(s, pid, tid)
		// Cross-track parent edge -> flow arrow parent.Start .. span.Start.
		if p, ok := byID[s.Parent]; ok && (p.Track != s.Track || p.Proc != s.Proc) {
			cw.flow(s.ID, l.pids[p.Proc], l.tids[trackKey{p.Proc, p.Track}], usec(p.Start),
				pid, tid, usec(s.Start))
		}
		// Explicit links -> flow arrow link.End .. span.Start (the linked
		// span finishing is what fed this one).
		for _, lid := range s.Links {
			lk, ok := byID[lid]
			if !ok {
				continue
			}
			// Flow ids must be unique per arrow; fold the link id in.
			cw.flow(s.ID<<20|lid&0xfffff, l.pids[lk.Proc], l.tids[trackKey{lk.Proc, lk.Track}], usec(lk.End),
				pid, tid, usec(s.Start))
		}
	}
	cw.w.WriteString("\n]")
	return cw.w.Flush()
}

// trackKey identifies one display lane: a track within a process group.
type trackKey struct{ proc, track string }

// chromeLayout numbers a trace's processes and tracks.
type chromeLayout struct {
	procs  []string            // sorted; pid = index + 1
	pids   map[string]int      // proc -> pid
	byProc map[string][]string // proc -> its tracks, sorted; tid = index + 1
	tids   map[trackKey]int
}

// newChromeLayout groups tracks into processes. The empty Proc is the
// default "tpusim" process (pid 1), so single-process traces keep their
// shape; a cluster trace sets Proc per host and each host renders as its
// own named process with its own track namespace. Tids are assigned per
// process in sorted track order so Perfetto lists tracks deterministically
// and readably.
func newChromeLayout(spans []SpanData) *chromeLayout {
	l := &chromeLayout{pids: map[string]int{}, byProc: map[string][]string{}, tids: map[trackKey]int{}}
	for _, s := range spans {
		k := trackKey{s.Proc, s.Track}
		if _, ok := l.tids[k]; !ok {
			l.tids[k] = 0
			l.byProc[s.Proc] = append(l.byProc[s.Proc], s.Track)
		}
	}
	for p, tracks := range l.byProc {
		l.procs = append(l.procs, p)
		sort.Strings(tracks)
		for i, tr := range tracks {
			l.tids[trackKey{p, tr}] = i + 1
		}
	}
	sort.Strings(l.procs) // "" sorts first, keeping the default process at pid 1
	if len(l.procs) == 0 {
		l.procs = append(l.procs, "")
	}
	for i, p := range l.procs {
		l.pids[p] = i + 1
	}
	return l
}

// chromeWriter appends events to its buffered writer's spare buffer, one
// event per Write.
type chromeWriter struct {
	w      *bufio.Writer
	events int
	args   []chromeArg // an "X" event's args, reused
}

// chromeArg is one key of an "X" event's args: a span identity number
// (trace, span, parent), or an attribute, whose value renders as a string.
type chromeArg struct {
	key  string
	id   uint64
	attr *Attr // nil for an identity number
}

// begin starts an event object at the top level of the array.
func (cw *chromeWriter) begin() []byte {
	b := cw.w.AvailableBuffer()
	if cw.events > 0 {
		b = append(b, ",\n"...)
	}
	cw.events++
	return append(b, " {"...)
}

// The key prefixes of an event's fields (depth 2) and its args' (depth 3).
const (
	fieldIndent = "\n  "
	argIndent   = "\n   "
)

// meta writes a metadata event: a process_name or thread_name giving
// name, or a process_sort_index or thread_sort_index giving index.
func (cw *chromeWriter) meta(kind string, pid, tid int, name string, index int) {
	b := cw.begin()
	b = append(b, fieldIndent+`"args": {`...)
	if strings.HasSuffix(kind, "_name") {
		b = append(b, argIndent+`"name": `...)
		b = appendJSONString(b, name)
	} else {
		b = append(b, argIndent+`"sort_index": `...)
		b = strconv.AppendInt(b, int64(index), 10)
	}
	b = append(b, "\n  },"+fieldIndent+`"name": `...)
	b = appendJSONString(b, kind)
	b = append(b, ","+fieldIndent+`"ph": "M",`+fieldIndent+`"pid": `...)
	b = cw.ids(b, pid, tid)
	b = append(b, ","+fieldIndent+`"ts": 0`+"\n }"...)
	cw.w.Write(b)
}

// ids appends the pid value, then the tid field.
func (cw *chromeWriter) ids(b []byte, pid, tid int) []byte {
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, ","+fieldIndent+`"tid": `...)
	return strconv.AppendInt(b, int64(tid), 10)
}

// slice writes a span's complete ("X") event. Its args map the span's
// trace, id and parent (when set), then its attributes in order, a later
// key replacing an earlier one.
func (cw *chromeWriter) slice(s *SpanData, pid, tid int) {
	args := append(cw.args[:0], chromeArg{key: "trace", id: s.Trace}, chromeArg{key: "span", id: s.ID})
	if s.Parent != 0 {
		args = append(args, chromeArg{key: "parent", id: s.Parent})
	}
	for i := range s.Attrs {
		a := chromeArg{key: s.Attrs[i].Key, attr: &s.Attrs[i]}
		if j := slices.IndexFunc(args, func(c chromeArg) bool { return c.key == a.key }); j >= 0 {
			args[j] = a
		} else {
			args = append(args, a)
		}
	}
	slices.SortFunc(args, func(x, y chromeArg) int { return strings.Compare(x.key, y.key) })
	cw.args = args

	b := cw.begin()
	b = append(b, fieldIndent+`"args": {`...)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, argIndent...)
		b = appendJSONString(b, a.key)
		b = append(b, ": "...)
		if a.attr == nil {
			b = strconv.AppendUint(b, a.id, 10)
		} else {
			b = appendJSONString(b, a.attr.Value())
		}
	}
	b = append(b, "\n  },"+fieldIndent+`"cat": "span",`+fieldIndent+`"dur": `...)
	b = strconv.AppendInt(b, max(s.End.Sub(s.Start).Microseconds(), 0), 10)
	b = append(b, ","+fieldIndent+`"name": `...)
	b = appendJSONString(b, s.Name)
	b = append(b, ","+fieldIndent+`"ph": "X",`+fieldIndent+`"pid": `...)
	b = cw.ids(b, pid, tid)
	b = append(b, ","+fieldIndent+`"ts": `...)
	b = strconv.AppendInt(b, usec(s.Start), 10)
	b = append(b, "\n }"...)
	cw.w.Write(b)
}

// flow writes a flow start ("s") / finish ("f") pair. Chrome requires the
// finish timestamp to be >= the start timestamp.
func (cw *chromeWriter) flow(id uint64, fromPid, fromTid int, fromTs int64, toPid, toTid int, toTs int64) {
	cw.flowEvent("", "s", id, fromPid, fromTid, fromTs)
	cw.flowEvent(fieldIndent+`"bp": "e",`, "f", id, toPid, toTid, max(toTs, fromTs))
}

func (cw *chromeWriter) flowEvent(bp, ph string, id uint64, pid, tid int, ts int64) {
	b := cw.begin()
	b = append(b, bp...)
	b = append(b, fieldIndent+`"cat": "flow",`+fieldIndent+`"id": `...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, ","+fieldIndent+`"name": "flow",`+fieldIndent+`"ph": "`...)
	b = append(b, ph...)
	b = append(b, `",`+fieldIndent+`"pid": `...)
	b = cw.ids(b, pid, tid)
	b = append(b, ","+fieldIndent+`"ts": `...)
	b = strconv.AppendInt(b, ts, 10)
	b = append(b, "\n }"...)
	cw.w.Write(b)
}

// appendJSONString appends s as encoding/json writes it. A string of
// printable ASCII with nothing to escape is copied between quotes; any
// other goes through json.Marshal, whose escaping (HTML characters,
// invalid UTF-8, U+2028 and U+2029) is the definition.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func usec(t time.Time) int64 { return t.UnixMicro() }
