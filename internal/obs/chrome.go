// Chrome trace-event JSON exporter. The output is the "JSON array format"
// of the Trace Event specification, loadable by Perfetto (ui.perfetto.dev)
// and chrome://tracing: a flat array of events with ph "X" (complete
// slice), "M" (metadata naming processes/threads), and "s"/"f" (flow
// arrows linking one request's spans across tracks).
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// chromeEvent uses a map so each phase carries exactly the keys it needs
// while "name", "ph", "ts", "pid", "tid" stay present on every event
// (encoding/json renders map keys sorted, keeping output deterministic).
type chromeEvent map[string]any

// ChromeTrace renders spans as Chrome trace-event JSON. Tracks become
// threads of one process (tid assigned in sorted-track order, with
// thread_sort_index metadata so Perfetto lists them in the same order);
// parent/child edges that cross tracks and explicit span Links become flow
// arrows, so one request reads as a connected path from its serve track
// through the lane track down to the device's unit tracks.
func ChromeTrace(spans []SpanData) ([]byte, error) {
	events := buildChromeEvents(spans)
	return json.MarshalIndent(events, "", " ")
}

// WriteChromeTrace streams the trace JSON to w.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	data, err := ChromeTrace(spans)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// trackKey identifies one display lane: a track within a process group.
type trackKey struct{ proc, track string }

func buildChromeEvents(spans []SpanData) []chromeEvent {
	// Group tracks into processes. The empty Proc is the default "tpusim"
	// process (pid 1), so single-process traces keep their shape; a cluster
	// trace sets Proc per host and each host renders as its own named
	// process with its own track namespace.
	procSet := map[string]bool{}
	trackSet := map[trackKey]int{}
	for _, s := range spans {
		procSet[s.Proc] = true
		trackSet[trackKey{s.Proc, s.Track}] = 0
	}
	procs := make([]string, 0, len(procSet))
	for p := range procSet {
		procs = append(procs, p)
	}
	sort.Strings(procs) // "" sorts first, keeping the default process at pid 1
	if len(procs) == 0 {
		procs = append(procs, "")
	}
	pids := make(map[string]int, len(procs))
	for i, p := range procs {
		pids[p] = i + 1
	}
	// Assign tids per process in sorted track order so Perfetto lists
	// tracks deterministically and readably.
	byProc := map[string][]string{}
	for k := range trackSet {
		byProc[k.proc] = append(byProc[k.proc], k.track)
	}
	for _, p := range procs {
		tracks := byProc[p]
		sort.Strings(tracks)
		for i, tr := range tracks {
			trackSet[trackKey{p, tr}] = i + 1
		}
	}

	events := make([]chromeEvent, 0, 2*len(spans)+2*len(trackSet)+2*len(procs))
	for _, p := range procs {
		pid := pids[p]
		name := p
		if name == "" {
			name = "tpusim"
		}
		events = append(events,
			chromeEvent{
				"name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
				"args": map[string]any{"name": name},
			},
			chromeEvent{
				"name": "process_sort_index", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
				"args": map[string]any{"sort_index": pid},
			})
		for _, tr := range byProc[p] {
			tid := trackSet[trackKey{p, tr}]
			events = append(events,
				chromeEvent{
					"name": "thread_name", "ph": "M", "ts": 0, "pid": pid, "tid": tid,
					"args": map[string]any{"name": tr},
				},
				chromeEvent{
					"name": "thread_sort_index", "ph": "M", "ts": 0, "pid": pid, "tid": tid,
					"args": map[string]any{"sort_index": tid},
				})
		}
	}

	byID := make(map[uint64]*SpanData, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}

	for i := range spans {
		s := &spans[i]
		pid := pids[s.Proc]
		tid := trackSet[trackKey{s.Proc, s.Track}]
		args := map[string]any{
			"trace": s.Trace, "span": s.ID,
		}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		events = append(events, chromeEvent{
			"name": s.Name, "cat": "span", "ph": "X",
			"ts": usec(s.Start), "dur": maxI64(s.End.Sub(s.Start).Microseconds(), 0),
			"pid": pid, "tid": tid, "args": args,
		})
		// Cross-track parent edge -> flow arrow parent.Start .. span.Start.
		if p, ok := byID[s.Parent]; ok && (p.Track != s.Track || p.Proc != s.Proc) {
			events = appendFlow(events, s.ID,
				pids[p.Proc], trackSet[trackKey{p.Proc, p.Track}], usec(p.Start),
				pid, tid, usec(s.Start))
		}
		// Explicit links -> flow arrow link.End .. span.Start (the linked
		// span finishing is what fed this one).
		for _, lid := range s.Links {
			l, ok := byID[lid]
			if !ok {
				continue
			}
			// Flow ids must be unique per arrow; fold the link id in.
			events = appendFlow(events, s.ID<<20|lid&0xfffff,
				pids[l.Proc], trackSet[trackKey{l.Proc, l.Track}], usec(l.End),
				pid, tid, usec(s.Start))
		}
	}
	return events
}

// appendFlow emits a flow start ("s") / finish ("f") pair. Chrome requires
// the finish timestamp to be >= the start timestamp.
func appendFlow(events []chromeEvent, id uint64, fromPid, fromTid int, fromTs int64, toPid, toTid int, toTs int64) []chromeEvent {
	if toTs < fromTs {
		toTs = fromTs
	}
	return append(events,
		chromeEvent{
			"name": "flow", "cat": "flow", "ph": "s", "id": id,
			"ts": fromTs, "pid": fromPid, "tid": fromTid,
		},
		chromeEvent{
			"name": "flow", "cat": "flow", "ph": "f", "bp": "e", "id": id,
			"ts": toTs, "pid": toPid, "tid": toTid,
		})
}

func usec(t time.Time) int64 { return t.UnixMicro() }

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
