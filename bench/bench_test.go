package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if err := chdirRoot(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// benchmarkSpec is BENCHMARK.json at the root of the repository.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesHarness: BENCHMARK.json names exactly the workloads and
// metrics the harness defines.
func TestSpecMatchesHarness(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	sameDefs(t, "end_to_end", spec.EndToEnd, endToEnd)
	sameDefs(t, "per_layer", spec.PerLayer, perLayer)
}

func sameDefs(t *testing.T, key string, spec, harness []metricDef) {
	t.Helper()
	if len(spec) != len(harness) {
		t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", key, len(spec), len(harness))
	}
	for i := range spec {
		if spec[i] != harness[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", key, i, spec[i], harness[i])
		}
	}
}

// TestSmoke runs all six workloads at smoke scale, untraced and traced:
// every metric BENCHMARK.json names appears with a unit, every check passes.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, options{seed: 7, seconds: 0.01, smoke: true, trace: traced, out: out})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
				case m.Unit == "" || m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json %q", w.name, d.Name, m.Unit, d.Unit)
				case !name.MatchString(d.Name):
					t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestWrongReferenceFails: the correctness checks fire. A wrong reference
// output or a wrong golden makes every operation of the repetition fail.
func TestWrongReferenceFails(t *testing.T) {
	w, err := newWideInputs(options{seed: 7, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	w.want.Data[0]++
	rec, err := runWorkload(workload{name: "infer_batch", prepare: func(options) (*plan, error) {
		return &plan{rep: w.rep}, nil
	}}, options{smoke: true, seconds: 0.01, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != rec.Attempted || rec.Failed == 0 {
		t.Errorf("wrong reference: correct=%v failed=%d of %d, want every operation failed", rec.Correct, rec.Failed, rec.Attempted)
	}

	r := &rep{start: time.Now()}
	deviceSimRep(r, 1, "not table 3")
	if len(r.failures) == 0 {
		t.Error("wrong golden: device_sim recorded no failure")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.25, 1.75}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one value = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if s := summarize([]float64{1, 2, 3, 4, 5}); s.Min != 1 || s.Q1 != 2 || s.Median != 3 || s.Q3 != 4 || s.Max != 5 {
		t.Errorf("summarize = %+v", s)
	}
}

// TestSelfTime: a span's self time is its duration minus the part its
// children cover — overlapping children counted once, children clipped to
// the parent — minus its aggregated leaves.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 40, Parent: 0},
		{Start: 30, End: 50, Parent: 0},  // overlaps the previous child
		{Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Start: 12, End: 20, Parent: 1, Leaves: map[string]*leaf{"x.y": {Calls: 3, Total: 5}}},
	}
	want := []time.Duration{100 - 40 - 10, 30 - 8, 20, 30, 8 - 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	all := totals(spans)
	if c := all["x.y"]; c.Calls != 3 || c.Total != 5 {
		t.Errorf("leaf totals = %+v", c)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.1}
	higher := metricDef{Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		d    metricDef
		a, b float64
		want string
	}{
		{lower, 100, 105, "within"}, {lower, 100, 120, "worse"}, {lower, 100, 80, "better"},
		{higher, 100, 95, "within"}, {higher, 100, 80, "worse"}, {higher, 100, 120, "better"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}
