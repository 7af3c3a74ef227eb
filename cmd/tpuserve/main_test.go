package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tpusim/internal/obs"
)

// TestTraceJSONRejected: -trace-json with a fleet mode that records no
// spans is an error naming the mode; the cluster mode accepts it.
func TestTraceJSONRejected(t *testing.T) {
	for _, mode := range []string{"cluster-chaos", "rollout"} {
		if err := traceSupported(mode, "t.json"); err == nil || !strings.Contains(err.Error(), "-mode "+mode+" ") {
			t.Errorf("%s: got error %v, want one naming the mode", mode, err)
		}
		if err := traceSupported(mode, ""); err != nil {
			t.Errorf("%s without -trace-json: %v", mode, err)
		}
	}
	if err := traceSupported("cluster", "t.json"); err != nil {
		t.Errorf("cluster: %v", err)
	}
}

// TestTraceJSONSaysWhenTruncated: a trace whose ring dropped spans is
// written with a warning naming the dropped and kept counts; a whole one
// is written without a word.
func TestTraceJSONSaysWhenTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	for _, c := range []struct {
		capacity int
		want     string
	}{
		{5, ""},
		{2, "the span ring dropped the oldest 3 spans; " + path + " keeps the last 2\n"},
	} {
		tr := obs.NewTracer(c.capacity)
		for range 5 {
			tr.Emit(obs.SpanData{ID: tr.NextID(), Name: "s"})
		}
		var warn bytes.Buffer
		if err := writeTrace(path, tr, &warn); err != nil {
			t.Fatal(err)
		}
		if got := warn.String(); !strings.HasSuffix(got, c.want) || (c.want == "") != (got == "") {
			t.Errorf("capacity %d: warned %q, want %q", c.capacity, got, c.want)
		}
		if data, err := os.ReadFile(path); err != nil || bytes.Count(data, []byte(`"ph": "X"`)) != min(5, c.capacity) {
			t.Errorf("capacity %d: the file holds %d spans (%v), want %d", c.capacity, bytes.Count(data, []byte(`"ph": "X"`)), err, min(5, c.capacity))
		}
	}
}

// TestMalformedFloatFlagsRejected: a float flag that is NaN, infinite, zero
// or negative fails the run before any load is offered, with an error that
// names the flag. NaN slips past a `<= 0` check, so each mode must reject
// it explicitly.
func TestMalformedFloatFlagsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	live := func(scale, load float64) func() error {
		return func() error { return live(time.Millisecond, scale, load, false, "", 0, 1) }
	}
	chaos := func(slowX, faultAt, load float64) func() error {
		return func() error { return chaos("seed=1", 4, "", "", slowX, faultAt, time.Millisecond, load) }
	}
	for _, c := range []struct {
		flag string
		run  func() error
	}{
		{"-load", live(500, nan)},
		{"-load", live(500, -1)},
		{"-timescale", live(nan, 0.8)},
		{"-timescale", live(inf, 0.8)},
		{"-timescale", live(0, 0.8)},
		{"-fault-at", chaos(8, nan, 0.8)},
		{"-fault-at", chaos(8, inf, 0.8)},
		{"-slowx", chaos(nan, 0.3, 0.8)},
		{"-load", chaos(8, 0.3, nan)},
	} {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.flag+" ") {
			t.Errorf("%s: got error %v, want one naming the flag", c.flag, err)
		}
	}
}
