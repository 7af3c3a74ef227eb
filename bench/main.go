// Command bench is tpusim's layered benchmark: six workloads, from the
// int8 kernel to a fleet rollout, measured from outside through the public
// functions of tpusim's internal packages. README.md describes the
// workloads, the metrics and how to run, compare and profile.
//
//	bench                                      every workload, untraced then traced -> out/results.json
//	bench -workload W -seed N -seconds S -trace 0|1   one run of one workload (BENCHMARK.json's command)
//	bench -compare a.json b.json               one row per workload x end-to-end metric
//	bench -selfcheck                           two full runs of the same code must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

var workloads = []workload{deviceSim, queueSim, inferBatch, serveClosed, fleetPod, fleetOps}

func main() {
	var o options
	var trace int
	var scale string
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result as a last line of JSON")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "the only source of randomness: every input is generated from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long an untraced run of one workload measures")
	flag.IntVar(&trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 makes the traced pass and reports the per-layer metrics")
	flag.StringVar(&scale, "scale", "full", "full, or smoke for small inputs and one repetition (the self-test)")
	flag.StringVar(&o.out, "out", "bench/out", "directory for results, traces and profiles")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write out/cpu-<workload>.pprof for this workload's untraced run")
	flag.StringVar(&o.memprofile, "memprofile", "", "write out/mem-<workload>.pprof for this workload's untraced run")
	compare := flag.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
	selfcheck := flag.Bool("selfcheck", false, "run everything twice and fail if any metric is outside its own bound")
	flag.Parse()
	o.trace = trace == 1
	o.smoke = scale == "smoke"
	if (scale != "smoke" && scale != "full") || trace < 0 || trace > 1 || o.seconds <= 0 {
		fail(fmt.Errorf("bad -scale, -trace or -seconds"))
	}
	if err := chdirRoot(); err != nil {
		fail(err)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fail(err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two results files"))
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		printComparison(os.Stdout, a, b)
	case *selfcheck:
		if err := runSelfcheck(o); err != nil {
			fail(err)
		}
	case o.workload != "":
		if err := runOne(o); err != nil {
			fail(err)
		}
	default:
		res, err := runAll(o, "results.json")
		if err != nil {
			fail(err)
		}
		if !res.correct() {
			fail(fmt.Errorf("a correctness check failed"))
		}
	}
}

// chdirRoot moves to the root of the checkout, the nearest directory at or
// above the current one that holds BENCHMARK.json: the workloads read the
// repository's goldens, and -out is relative to it.
func chdirRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return os.Chdir(dir)
		}
		if filepath.Dir(dir) == dir {
			return fmt.Errorf("no BENCHMARK.json at or above the current directory: run inside a tpusim checkout")
		}
		dir = filepath.Dir(dir)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload in this process. Its standard output ends with
// one JSON object: correct, attempted, failed and the metrics.
func runOne(o options) error {
	for _, w := range workloads {
		if w.name != o.workload {
			continue
		}
		rec, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		if err := writeJSON(recordPath(o, w.name, o.trace), rec); err != nil {
			return err
		}
		printRecord(os.Stdout, rec)
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		last := struct {
			Correct   bool             `json:"correct"`
			Attempted int64            `json:"attempted"`
			Failed    int64            `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, map[string]value{}}
		for name, m := range rec.Metrics {
			last.Metrics[name] = value{m.Value, m.Unit}
		}
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return fmt.Errorf("%s: %d of %d operations failed a correctness check", w.name, rec.Failed, rec.Attempted)
		}
		return nil
	}
	return fmt.Errorf("unknown workload %q", o.workload)
}

func recordPath(o options, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return fmt.Sprintf("%s/run-%s-%s.json", o.out, workload, kind)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
