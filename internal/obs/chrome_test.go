package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"tpusim/internal/obs"
)

// chromeSpans builds a two-track trace: a request root on the serve track
// with a child run span on a device track, plus a linked sibling from
// another trace (a batch member).
func chromeSpans(t0 time.Time) []obs.SpanData {
	return []obs.SpanData{
		{Trace: 1, ID: 1, Name: "request", Track: "serve/MLP0",
			Start: t0, End: t0.Add(4 * time.Millisecond),
			Attrs: []obs.Attr{obs.String("model", "MLP0")}},
		{Trace: 1, ID: 2, Parent: 1, Name: "run", Track: "tpu0",
			Start: t0.Add(time.Millisecond), End: t0.Add(3 * time.Millisecond),
			Links: []uint64{4}},
		{Trace: 1, ID: 3, Parent: 2, Name: "matrix_multiply", Track: "tpu0/matrix",
			Start: t0.Add(time.Millisecond), End: t0.Add(2 * time.Millisecond)},
		{Trace: 2, ID: 4, Name: "request", Track: "serve/MLP0",
			Start: t0, End: t0.Add(time.Millisecond)},
	}
}

// chromeTrace exports spans through obs.WriteChromeTrace.
func chromeTrace(spans []obs.SpanData) ([]byte, error) {
	var b bytes.Buffer
	err := obs.WriteChromeTrace(&b, spans)
	return b.Bytes(), err
}

// TestChromeTraceSchema validates the exported JSON against the trace
// event format contract: a flat array where every event carries name, ph,
// ts, pid, tid.
func TestChromeTraceSchema(t *testing.T) {
	data, err := chromeTrace(chromeSpans(time.Unix(1000, 0)))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("exported trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty event array")
	}
	phases := map[string]int{}
	for i, e := range events {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, e)
			}
		}
		phases[e["ph"].(string)]++
	}
	// Four spans -> four complete slices; three flow arrows (cross-track
	// parent edges 1->2 and 2->3, plus link 4->2), each an s/f pair;
	// metadata naming + sorting the process and the three distinct tracks.
	if phases["X"] != 4 {
		t.Errorf("%d complete slices, want 4", phases["X"])
	}
	if phases["s"] != 3 || phases["f"] != 3 {
		t.Errorf("flow pairs s=%d f=%d, want 3/3", phases["s"], phases["f"])
	}
	if phases["M"] != 2+2*3 {
		t.Errorf("%d metadata events, want 8 (2 process + 2 per track)", phases["M"])
	}
}

// TestChromeTraceProcessGroups: spans carrying a Proc render as separate
// named Chrome processes — the multi-host cluster trace shape — while
// Proc-less spans stay in the default "tpusim" process at pid 1.
func TestChromeTraceProcessGroups(t *testing.T) {
	t0 := time.Unix(1000, 0)
	spans := []obs.SpanData{
		{Trace: 1, ID: 1, Name: "request", Track: "MLP", Proc: "apps",
			Start: t0, End: t0.Add(2 * time.Millisecond)},
		{Trace: 1, ID: 2, Parent: 1, Name: "batch", Track: "dev0", Proc: "host0",
			Start: t0, End: t0.Add(time.Millisecond)},
		{Trace: 2, ID: 3, Name: "legacy", Track: "tpu0",
			Start: t0, End: t0.Add(time.Millisecond)},
	}
	data, err := chromeTrace(spans)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	procName := map[float64]string{} // pid -> process name
	trackPid := map[string]float64{} // thread name -> pid
	for _, e := range events {
		if e["ph"] != "M" {
			continue
		}
		name := e["args"].(map[string]any)["name"]
		switch e["name"] {
		case "process_name":
			procName[e["pid"].(float64)] = name.(string)
		case "thread_name":
			trackPid[name.(string)] = e["pid"].(float64)
		}
	}
	if procName[1] != "tpusim" {
		t.Errorf("pid 1 named %q, want the default tpusim process", procName[1])
	}
	if got := procName[trackPid["dev0"]]; got != "host0" {
		t.Errorf("dev0 track lives in process %q, want host0", got)
	}
	if got := procName[trackPid["MLP"]]; got != "apps" {
		t.Errorf("MLP track lives in process %q, want apps", got)
	}
	if got := procName[trackPid["tpu0"]]; got != "tpusim" {
		t.Errorf("proc-less tpu0 track lives in process %q, want tpusim", got)
	}
	// The cross-process parent edge renders as a flow pair spanning pids.
	var flowPids []float64
	for _, e := range events {
		if e["cat"] == "flow" {
			flowPids = append(flowPids, e["pid"].(float64))
		}
	}
	if len(flowPids) != 2 || flowPids[0] == flowPids[1] {
		t.Errorf("cross-process parent edge flows %v, want an s/f pair on two pids", flowPids)
	}
}

func TestChromeTraceDurationsAndArgs(t *testing.T) {
	t0 := time.Unix(1000, 0)
	data, err := chromeTrace(chromeSpans(t0))
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	tracks := map[float64]string{} // tid -> thread name
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "thread_name" {
			tracks[e["tid"].(float64)] = e["args"].(map[string]any)["name"].(string)
		}
	}
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		if e["name"] == "request" {
			args := e["args"].(map[string]any)
			if args["model"] != "MLP0" && args["trace"].(float64) != 2 {
				t.Errorf("request args lost attrs: %v", args)
			}
		}
		if e["name"] == "run" {
			if dur := e["dur"].(float64); dur != 2000 {
				t.Errorf("run dur %v us, want 2000", dur)
			}
			if tr := tracks[e["tid"].(float64)]; tr != "tpu0" {
				t.Errorf("run renders on track %q, want tpu0", tr)
			}
		}
	}
	// Flow finish must never precede its start.
	starts := map[float64]float64{}
	for _, e := range events {
		if e["ph"] == "s" {
			starts[e["id"].(float64)] = e["ts"].(float64)
		}
	}
	for _, e := range events {
		if e["ph"] == "f" {
			if e["ts"].(float64) < starts[e["id"].(float64)] {
				t.Errorf("flow %v finishes before it starts", e["id"])
			}
		}
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	data, err := chromeTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(events) != 2 {
		t.Errorf("empty trace has %d events, want just the process name + sort metadata", len(events))
	}
}
