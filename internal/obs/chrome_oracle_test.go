package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"tpusim/internal/obs"
)

// oracleChromeTrace is the exporter as it was first written: one map per
// event and a whole-document json.MarshalIndent. WriteChromeTrace must
// write its bytes exactly.
func oracleChromeTrace(spans []obs.SpanData) ([]byte, error) {
	type chromeEvent map[string]any
	type trackKey struct{ proc, track string }
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
	sort.Strings(procs)
	if len(procs) == 0 {
		procs = append(procs, "")
	}
	pids := make(map[string]int, len(procs))
	for i, p := range procs {
		pids[p] = i + 1
	}
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

	var events []chromeEvent
	for _, p := range procs {
		pid := pids[p]
		name := p
		if name == "" {
			name = "tpusim"
		}
		events = append(events,
			chromeEvent{"name": "process_name", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
				"args": map[string]any{"name": name}},
			chromeEvent{"name": "process_sort_index", "ph": "M", "ts": 0, "pid": pid, "tid": 0,
				"args": map[string]any{"sort_index": pid}})
		for _, tr := range byProc[p] {
			tid := trackSet[trackKey{p, tr}]
			events = append(events,
				chromeEvent{"name": "thread_name", "ph": "M", "ts": 0, "pid": pid, "tid": tid,
					"args": map[string]any{"name": tr}},
				chromeEvent{"name": "thread_sort_index", "ph": "M", "ts": 0, "pid": pid, "tid": tid,
					"args": map[string]any{"sort_index": tid}})
		}
	}
	flow := func(id uint64, fromPid, fromTid int, fromTs int64, toPid, toTid int, toTs int64) {
		if toTs < fromTs {
			toTs = fromTs
		}
		events = append(events,
			chromeEvent{"name": "flow", "cat": "flow", "ph": "s", "id": id,
				"ts": fromTs, "pid": fromPid, "tid": fromTid},
			chromeEvent{"name": "flow", "cat": "flow", "ph": "f", "bp": "e", "id": id,
				"ts": toTs, "pid": toPid, "tid": toTid})
	}
	byID := make(map[uint64]*obs.SpanData, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		pid := pids[s.Proc]
		tid := trackSet[trackKey{s.Proc, s.Track}]
		args := map[string]any{"trace": s.Trace, "span": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		events = append(events, chromeEvent{
			"name": s.Name, "cat": "span", "ph": "X",
			"ts": s.Start.UnixMicro(), "dur": max(s.End.Sub(s.Start).Microseconds(), 0),
			"pid": pid, "tid": tid, "args": args,
		})
		if p, ok := byID[s.Parent]; ok && (p.Track != s.Track || p.Proc != s.Proc) {
			flow(s.ID, pids[p.Proc], trackSet[trackKey{p.Proc, p.Track}], p.Start.UnixMicro(),
				pid, tid, s.Start.UnixMicro())
		}
		for _, lid := range s.Links {
			l, ok := byID[lid]
			if !ok {
				continue
			}
			flow(s.ID<<20|lid&0xfffff, pids[l.Proc], trackSet[trackKey{l.Proc, l.Track}], l.End.UnixMicro(),
				pid, tid, s.Start.UnixMicro())
		}
	}
	return json.MarshalIndent(events, "", " ")
}

// oddStrings are strings encoding/json rewrites: HTML characters, control
// bytes, quotes and backslashes, invalid UTF-8, U+2028 and U+2029, and
// multi-byte runes it keeps.
var oddStrings = []string{
	"", "<b>", "a<b", "a&b", "x>y", "\"q\"", `back\slash`, "tab\tnl\ncr\r", "\b\f\x00\x1f\x7f",
	"\xff", "ok\xc3", "\xe2\x80\xa8", "line\u2028para\u2029", "héllo", "日本", "\U0001F600",
}

// randString is a name, track or key: usually a short plain one, sometimes
// one of oddStrings or the key of an identity arg.
func randString(r *rand.Rand) string {
	switch r.Intn(6) {
	case 0:
		return oddStrings[r.Intn(len(oddStrings))]
	case 1:
		return []string{"trace", "span", "parent"}[r.Intn(3)]
	}
	return fmt.Sprintf("k%d", r.Intn(4))
}

// randSpans builds a random trace: IDs that collide or are missing, parents
// on other tracks and processes, links, negative durations, and attributes
// of every type whose keys collide with each other and the identity args.
func randSpans(r *rand.Rand) []obs.SpanData {
	n := r.Intn(12)
	t0 := time.Unix(1000, int64(r.Intn(1e9)))
	spans := make([]obs.SpanData, n)
	for i := range spans {
		s := &spans[i]
		s.Trace = uint64(r.Intn(3))
		s.ID = uint64(r.Intn(n + 2))
		if r.Intn(3) > 0 {
			s.Parent = uint64(r.Intn(n + 2))
		}
		if r.Intn(8) == 0 {
			s.ID, s.Parent = r.Uint64(), r.Uint64()
		}
		s.Name, s.Track = randString(r), randString(r)
		if r.Intn(2) == 0 {
			s.Proc = randString(r)
		}
		s.Start = t0.Add(time.Duration(r.Intn(1e7)) * time.Nanosecond)
		s.End = s.Start.Add(time.Duration(r.Intn(2e7)-5e6) * time.Nanosecond)
		for k := r.Intn(5); k > 0; k-- {
			key := randString(r)
			switch r.Intn(4) {
			case 0:
				s.Attrs = append(s.Attrs, obs.Int64(key, r.Int63()-r.Int63()))
			case 1:
				s.Attrs = append(s.Attrs, obs.Float(key, []float64{r.NormFloat64() * 1e6, 0, 1e21, -1e-7, math.NaN(), math.Inf(-1)}[r.Intn(6)]))
			default:
				s.Attrs = append(s.Attrs, obs.String(key, randString(r)))
			}
		}
		for k := r.Intn(3); k > 0; k-- {
			s.Links = append(s.Links, uint64(r.Intn(n+2)))
		}
	}
	return spans
}

// TestChromeTraceMatchesOracle: on random traces, and on the empty one,
// the streaming exporter writes the map-and-MarshalIndent builder's bytes.
func TestChromeTraceMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		spans := randSpans(r)
		if i == 0 {
			spans = nil
		}
		want, err := oracleChromeTrace(spans)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := obs.WriteChromeTrace(&got, spans); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trace %d: streamed export differs from the oracle\n--- got ---\n%s\n--- want ---\n%s", i, got.Bytes(), want)
		}
	}
}
