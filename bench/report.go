package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

const schemaVersion = 1

// manifest says what produced a results file.
type manifest struct {
	Schema     int            `json:"schema"`
	GitRev     string         `json:"git_rev"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	P          int            `json:"p"`
	Seed       int64          `json:"seed"`
	Scale      string         `json:"scale"`
	Seconds    float64        `json:"seconds"`
	Reps       map[string]int `json:"reps"` // untraced repetitions per workload
}

// results is one full run: every workload untraced, then traced.
type results struct {
	Manifest manifest     `json:"manifest"`
	EndToEnd []metricDef  `json:"end_to_end"`
	PerLayer []metricDef  `json:"per_layer"`
	Untraced []*runRecord `json:"untraced"`
	Traced   []*runRecord `json:"traced"`
}

func (r *results) correct() bool {
	for _, rec := range append(append([]*runRecord(nil), r.Untraced...), r.Traced...) {
		if !rec.Correct {
			return false
		}
	}
	return true
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in a fresh child process each — so heap state
// and the resident-set high-water mark are per workload — untraced and then
// traced, and writes everything to out/<file>.
func runAll(o options, file string) (*results, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &results{
		Manifest: manifest{
			Schema: schemaVersion, GitRev: gitRev(), GoVersion: runtime.Version(),
			NProc: runtime.NumCPU(), GOMAXPROCS: parallelism(), P: parallelism(),
			Seed: o.seed, Scale: scaleName(o.smoke), Seconds: o.seconds, Reps: map[string]int{},
		},
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-scale", scaleName(o.smoke), "-out", o.out,
			}
			if traced {
				args = append(args, "-trace", "1")
			} else {
				args = append(args, "-cpuprofile", o.cpuprofile, "-memprofile", o.memprofile)
			}
			cmd := exec.Command(exe, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			// Everything but the child's last line, which is its result as JSON.
			text := strings.TrimRight(stdout.String(), "\n")
			if i := strings.LastIndexByte(text, '\n'); i >= 0 {
				fmt.Println(text[:i])
			}
			var rec runRecord
			data, err := os.ReadFile(recordPath(o, w.name, traced))
			if err != nil {
				return nil, fmt.Errorf("%s: %v (child: %v)", w.name, err, runErr)
			}
			if err := json.Unmarshal(data, &rec); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			if traced {
				res.Traced = append(res.Traced, &rec)
			} else {
				res.Untraced = append(res.Untraced, &rec)
				res.Manifest.Reps[w.name] = rec.Reps
			}
		}
	}
	path := o.out + "/" + file
	if err := writeJSON(path, res); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s and %d traces under %s\n", path, len(res.Traced), o.out)
	return res, nil
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Manifest.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this harness reads %d", path, r.Manifest.Schema, schemaVersion)
	}
	return &r, nil
}

// verdict compares b against a for one metric: "worse" or "better" when b
// differs from a by more than bound x a in that direction, else "within".
func verdict(d metricDef, a, b float64) string {
	delta := (b - a) / a
	if d.Better == "lower" {
		delta = -delta
	}
	switch {
	case delta < -d.Bound:
		return "worse"
	case delta > d.Bound:
		return "better"
	}
	return "within"
}

// printComparison prints one row per workload x end-to-end metric and
// returns how many rows are not "within".
func printComparison(w io.Writer, a, b *results) int {
	fmt.Fprintf(w, "a: rev %.12s seed %d    b: rev %.12s seed %d    ratio = b/a (base a)\n",
		a.Manifest.GitRev, a.Manifest.Seed, b.Manifest.GitRev, b.Manifest.Seed)
	fmt.Fprintf(w, "%-13s %-14s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "ratio", "bound", "verdict")
	outside := 0
	for _, ra := range a.Untraced {
		for _, rb := range b.Untraced {
			if ra.Workload != rb.Workload {
				continue
			}
			for _, d := range endToEnd {
				ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
				v := verdict(d, ma.Value, mb.Value)
				if v != "within" {
					outside++
				}
				fmt.Fprintf(w, "%-13s %-14s %14.6g %14.6g %8.3f %5.0f%%  %s\n",
					ra.Workload, d.Name, ma.Value, mb.Value, mb.Value/ma.Value, d.Bound*100, v)
			}
			if ra.SimDigest != rb.SimDigest {
				fmt.Fprintf(w, "%-13s sim_digest differs: %.12s vs %.12s\n", ra.Workload, ra.SimDigest, rb.SimDigest)
			}
		}
	}
	return outside
}

// runSelfcheck runs everything twice back to back. The two runs of the same
// code must agree within each end-to-end metric's own bound, and exactly on
// every simulated count and digest.
func runSelfcheck(o options) error {
	a, err := runAll(o, "selfcheck-a.json")
	if err != nil {
		return err
	}
	b, err := runAll(o, "selfcheck-b.json")
	if err != nil {
		return err
	}
	outside := printComparison(os.Stdout, a, b)
	for i, ra := range a.Untraced {
		if rb := b.Untraced[i]; ra.SimDigest != rb.SimDigest {
			outside++
		}
	}
	for i, ra := range a.Traced {
		for _, d := range perLayer {
			va, vb := ra.Metrics[d.Name].Value, b.Traced[i].Metrics[d.Name].Value
			if (d.Unit == "count" || d.Unit == "cycles") && va != vb {
				fmt.Printf("%-13s %s: simulated count differs: %v vs %v\n", ra.Workload, d.Name, va, vb)
				outside++
			}
		}
	}
	if !a.correct() || !b.correct() {
		return fmt.Errorf("a correctness check failed")
	}
	if outside > 0 {
		return fmt.Errorf("%d metrics disagree between two runs of the same code", outside)
	}
	fmt.Println("selfcheck: two runs of the same code agree on every metric")
	return nil
}
