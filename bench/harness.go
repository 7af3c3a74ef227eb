package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of tpusim sees, measured untraced and
// reported as the median over a run's repetitions. Bound is the share of
// the parent's median by which the metric may worsen before a change
// counts as a regression. Two metrics a user also sees are per-layer
// metrics instead, because they cannot hold a bound on every workload:
// request latency percentiles exist on serve_closed only (serve.req_p50_us,
// serve.req_p99_us), and the resident-set high-water mark of a small heap
// swings by half with garbage-collector timing (bench.peak_rss_mb).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "objects/op", "lower", 0.05},
	{"bytes_per_op", "B/op", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// metric is one reported value. Reps holds every repetition's raw value
// where the value is a median over repetitions.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Reps    []float64 `json:"reps,omitempty"`
	Summary *summary  `json:"summary,omitempty"`
}

// options are the settings of one run of one workload.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
	// cpuprofile and memprofile name the workload to profile; the run that
	// matches writes out/cpu-<workload>.pprof or out/mem-<workload>.pprof.
	cpuprofile, memprofile string
}

// P is the number of OS threads' worth of work the harness offers: the
// simulators run on one, infer_batch uses P devices and serve_closed P
// closed-loop clients.
func parallelism() int { return min(runtime.NumCPU(), 2) }

// workload is one named set of inputs. prepare generates the inputs and
// reference outputs from the seed, once per process; the plan it returns
// runs repetitions on them.
type workload struct {
	name, why string
	prepare   func(o options) (*plan, error)
}

// plan is a prepared workload.
type plan struct {
	// rep runs one repetition: program set-up, r.begin(), the timed
	// operations, r.end(ops), then the correctness checks.
	rep func(r *rep)
	// layers runs after the traced repetition: it derives the per-layer
	// metrics from the spans and from probes of layers that have no seam.
	layers func(l *layerRun)
}

// rep measures one repetition.
type rep struct {
	id    int
	tr    *tracer // nil when untraced
	start time.Time

	began    time.Time
	setup    time.Duration
	wall     time.Duration
	ops      int64
	m0, m1   runtime.MemStats
	liveHeap uint64 // bytes still reachable when the timed region ended
	failures []string
	// sim accumulates the repetition's simulated statistics, one "key=value"
	// line each; its hash is the sim_digest.
	sim strings.Builder
	// latencies are client-side round trips in seconds (serve_closed).
	latencies []float64
}

// begin ends set-up and starts the timed region.
func (r *rep) begin() {
	r.setup = time.Since(r.start)
	runtime.ReadMemStats(&r.m0)
	r.began = time.Now()
}

// end stops the timed region after ops operations.
func (r *rep) end(ops int64) {
	r.wall = time.Since(r.began)
	runtime.ReadMemStats(&r.m1)
	r.ops = ops
	// What the program still holds — the cluster, the servers, the results
	// — is what a collection right now cannot free.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.liveHeap = m.HeapAlloc
}

// failf records a failed correctness check; every operation of a
// repetition with a failed check counts as failed.
func (r *rep) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// check records err as a failure and reports whether there was none.
func (r *rep) check(what string, err error) bool {
	if err != nil {
		r.failf("%s: %v", what, err)
	}
	return err == nil
}

// stat adds one simulated statistic to the repetition's digest.
func (r *rep) stat(key string, value any) { fmt.Fprintf(&r.sim, "%s=%v\n", key, value) }

func (r *rep) digest() string {
	h := sha256.Sum256([]byte(r.sim.String()))
	return hex.EncodeToString(h[:])
}

// layerRun collects the per-layer metrics of a traced run.
type layerRun struct {
	opts    options
	calls   map[string]callStats
	plain   *rep // the untraced repetition that ran before the traced one
	traced  *rep // the traced repetition; failed probes are recorded on it
	metrics map[string]float64
}

func (l *layerRun) set(name string, v float64) { l.metrics[name] = v }

// runRecord is everything one run of one workload measured.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Scale     string            `json:"scale"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Reps      int               `json:"reps"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	SimDigest string            `json:"sim_digest"`
	Metrics   map[string]metric `json:"metrics"`
}

func scaleName(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// runWorkload runs one workload in this process: untraced repetitions for
// o.seconds seconds and the end-to-end metrics, or with o.trace one
// untraced and one traced repetition, the probes and the per-layer metrics.
func runWorkload(w workload, o options) (*runRecord, error) {
	runtime.GOMAXPROCS(parallelism())
	if o.cpuprofile == w.name {
		f, err := os.Create(fmt.Sprintf("%s/cpu-%s.pprof", o.out, w.name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	p, err := w.prepare(o)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	rec := &runRecord{
		Workload: w.name, Seed: o.seed, Scale: scaleName(o.smoke), Seconds: o.seconds,
		Traced: o.trace, Metrics: map[string]metric{},
	}
	var reps []*rep
	runRep := func(tr *tracer) *rep {
		// Collect before each repetition so every one starts from the same
		// heap state; the collection is outside set-up and the timed region.
		runtime.GC()
		r := &rep{id: len(reps), tr: tr, start: time.Now()}
		if tr != nil {
			tr.rep = r.id
		}
		p.rep(r)
		reps = append(reps, r)
		return r
	}

	if o.trace {
		plain := runRep(nil)
		tr := newTracer()
		traced := runRep(tr)
		l := &layerRun{opts: o, calls: totals(tr.spans), plain: plain, traced: traced, metrics: map[string]float64{}}
		// A repetition that failed may have stopped before its timed region;
		// there is nothing to split by layer then.
		if len(plain.failures)+len(traced.failures) == 0 {
			l.set("bench.trace_overhead_pct", (traced.wall.Seconds()/plain.wall.Seconds()-1)*100)
			p.layers(l)
		}
		rss, err := peakRSSMiB()
		if err != nil {
			return nil, err
		}
		l.set("bench.peak_rss_mb", rss)
		for _, d := range perLayer {
			rec.Metrics[d.Name] = metric{Value: l.metrics[d.Name], Unit: d.Unit}
		}
		for name := range l.metrics {
			if _, ok := rec.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: per-layer metric %q is not declared in perLayer", w.name, name)
			}
		}
		if err := writeChromeTrace(fmt.Sprintf("%s/trace-%s.json", o.out, w.name), tr.spans); err != nil {
			return nil, err
		}
	} else {
		minReps := 3
		if o.smoke {
			minReps = 1
		}
		began := time.Now()
		for len(reps) < minReps || time.Since(began).Seconds() < o.seconds {
			runRep(nil)
		}
		raw := map[string][]float64{}
		for _, r := range reps {
			if r.wall == 0 {
				continue // failed before its timed region ended
			}
			ops := float64(max(r.ops, 1))
			raw["ops_per_s"] = append(raw["ops_per_s"], ops/r.wall.Seconds())
			raw["setup_s"] = append(raw["setup_s"], r.setup.Seconds())
			raw["allocs_per_op"] = append(raw["allocs_per_op"], float64(r.m1.Mallocs-r.m0.Mallocs)/ops)
			raw["bytes_per_op"] = append(raw["bytes_per_op"], float64(r.m1.TotalAlloc-r.m0.TotalAlloc)/ops)
			raw["live_heap_mb"] = append(raw["live_heap_mb"], float64(r.liveHeap)/(1<<20))
		}
		for _, d := range endToEnd {
			s := summarize(raw[d.Name])
			rec.Metrics[d.Name] = metric{Value: s.Median, Unit: d.Unit, Reps: raw[d.Name], Summary: &s}
		}
	}

	if o.memprofile == w.name {
		f, err := os.Create(fmt.Sprintf("%s/mem-%s.pprof", o.out, w.name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return nil, err
		}
	}

	rec.Reps = len(reps)
	rec.SimDigest = reps[0].digest()
	for _, r := range reps {
		if d := r.digest(); d != rec.SimDigest {
			r.failf("simulated statistics differ from repetition 0 (digest %.12s vs %.12s)", d, rec.SimDigest)
		}
		ops := max(r.ops, 1)
		rec.Attempted += ops
		if len(r.failures) > 0 {
			rec.Failed += ops
			for _, f := range r.failures {
				rec.Failures = append(rec.Failures, fmt.Sprintf("rep %d: %s", r.id, f))
			}
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// printRecord prints every metric by name with its unit, then any failed
// checks.
func printRecord(w io.Writer, rec *runRecord) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s  seed=%d scale=%s reps=%d  %s metrics\n", rec.Workload, rec.Seed, rec.Scale, rec.Reps, kind)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rec.Metrics[name]
		if rec.Traced && m.Value == 0 {
			continue // layer not exercised by this workload
		}
		fmt.Fprintf(w, "  %-42s %16.6g %s\n", name, m.Value, m.Unit)
	}
	share := float64(rec.Failed) / float64(rec.Attempted)
	fmt.Fprintf(w, "  %-42s %16.6g ratio  (%d failed of %d attempted)\n", "failed_share", share, rec.Failed, rec.Attempted)
	fmt.Fprintf(w, "  %-42s %16.12s\n", "sim_digest", rec.SimDigest)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
