package main

import (
	"os"
	"path/filepath"
	"reflect"
	"time"

	"tpusim/internal/compiler"
	"tpusim/internal/experiments"
	"tpusim/internal/models"
	"tpusim/internal/tpu"
)

// goldenDir holds the repository's own pinned renderings. The harness
// follows them instead of pinning copies: a behaviour change updates the
// goldens there and the benchmark's checks move with them.
const goldenDir = "internal/experiments/testdata/golden"

func readGolden(name string) (string, error) {
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	return string(data), err
}

// deviceSim is the Table 3 path: shape-only compile plus the cycle
// simulator for the six apps and the ablation configurations. The inputs
// are the paper's six fixed apps, so the seed changes nothing here.
var deviceSim = workload{
	name: "device_sim",
	why:  "Table 3 path: compiler and tpu timing model do all the work; queueing, kernel and cluster do none",
	prepare: func(o options) (*plan, error) {
		golden, err := readGolden("table3.txt")
		if err != nil {
			return nil, err
		}
		passes := 25
		if o.smoke {
			passes = 1
		}
		return &plan{
			rep:    func(r *rep) { deviceSimRep(r, passes, golden) },
			layers: deviceSimLayers,
		}, nil
	},
}

// devicePass is one regeneration pass: ten six-app compile+simulate loops
// and the three ablations, 132 (app, config) operations.
type devicePass struct {
	Cycles                     [][]int64 // per loop, per app
	FIFO, Precision, Allocator []experiments.AblationRow
}

const devicePassOps = 10*6 + 6*5 + 6*5 + 6*2

func runDevicePass(tr *tracer) (devicePass, error) {
	var p devicePass
	for i := 0; i < 10; i++ {
		done := tr.push("experiments", "CompileAndRunAll")
		perfs, err := experiments.CompileAndRunAll(1)
		done()
		if err != nil {
			return p, err
		}
		cycles := make([]int64, len(perfs))
		for j, perf := range perfs {
			cycles[j] = perf.Counters.Cycles
		}
		p.Cycles = append(p.Cycles, cycles)
	}
	var err error
	done := tr.push("experiments", "FIFODepthAblation")
	p.FIFO, err = experiments.FIFODepthAblation()
	done()
	if err != nil {
		return p, err
	}
	done = tr.push("experiments", "PrecisionAblation")
	p.Precision, err = experiments.PrecisionAblation()
	done()
	if err != nil {
		return p, err
	}
	done = tr.push("experiments", "AllocatorAblation")
	p.Allocator, err = experiments.AllocatorAblation()
	done()
	return p, err
}

func deviceSimRep(r *rep, passes int, golden string) {
	// Set-up: one warm-up pass fills the device and instruction-slab pools.
	if _, err := runDevicePass(nil); !r.check("warm-up pass", err) {
		return
	}
	r.begin()
	var first devicePass
	for i := 0; i < passes; i++ {
		p, err := runDevicePass(r.tr)
		if !r.check("pass", err) {
			return
		}
		if i == 0 {
			first = p
		} else if !reflect.DeepEqual(p, first) {
			r.failf("pass %d: cycles differ from pass 0", i)
		}
	}
	r.end(int64(passes * devicePassOps))

	for i, name := range models.Names() {
		r.stat("cycles."+name, first.Cycles[0][i])
	}
	for _, rows := range [][]experiments.AblationRow{first.FIFO, first.Precision, first.Allocator} {
		for _, row := range rows {
			r.stat("ablation."+row.App+"."+row.Config, row.Cycles)
		}
	}
	rows, err := experiments.Table3()
	if r.check("Table3", err) {
		if got := experiments.RenderTable3(rows); got != golden {
			r.failf("RenderTable3 differs from %s/table3.txt", goldenDir)
		}
	}
	t7, err := experiments.Table7()
	if r.check("Table7", err) {
		for i, row := range t7 {
			if row.SimCycles != first.Cycles[0][i] {
				r.failf("%s: timed run simulated %d cycles, Table 7 has %d", row.Name, first.Cycles[0][i], row.SimCycles)
			}
			if row.DiffPct >= 10 {
				r.failf("%s: model differs from simulator by %.1f%%, want < 10%%", row.Name, row.DiffPct)
			}
			r.stat("model_cycles."+row.Name, row.ModelCycles)
		}
	}
}

// deviceSimLayers splits the (app, production config) operation into its
// three calls, which experiments.CompileAndRun makes back to back with no
// seam between them, and times each alone: median of 15.
func deviceSimLayers(l *layerRun) {
	var cycles, instructions int64
	var runMicros float64
	var newMicros []float64
	for _, b := range models.All() {
		name := b.Model.Name
		var compile, run []float64
		var last splitRun
		for i := 0; i < 15; i++ {
			var err error
			if last, err = compileNewRun(b); !l.traced.check("probe "+name, err) {
				return
			}
			compile = append(compile, micros(last.compile))
			newMicros = append(newMicros, micros(last.new))
			run = append(run, micros(last.run))
		}
		l.set("compiler.compile_shape_us."+name, median(compile))
		l.set("tpu.run_timing_us."+name, median(run))
		l.set("tpu.sim_cycles."+name, float64(last.cycles))
		cycles += last.cycles
		instructions += int64(last.instructions)
		runMicros += median(run)
	}
	l.set("tpu.new_us", median(newMicros))
	l.set("tpu.sim_cycles_per_host_us", float64(cycles)/runMicros)
	l.set("compiler.instructions_total", float64(instructions))
	l.set("perfmodel.max_err_pct", table7MaxErr(l))
}

// splitRun is one (app, production config) operation, call by call.
type splitRun struct {
	compile, new, run time.Duration
	cycles            int64
	instructions      int
}

func compileNewRun(b models.Benchmark) (splitRun, error) {
	var s splitRun
	t := time.Now()
	art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse})
	s.compile = time.Since(t)
	if err != nil {
		return s, err
	}
	t = time.Now()
	dev, err := tpu.New(tpu.DefaultConfig())
	s.new = time.Since(t)
	if err != nil {
		return s, err
	}
	t = time.Now()
	c, err := dev.Run(art.Program, nil)
	s.run = time.Since(t)
	s.cycles, s.instructions = c.Cycles, len(art.Program.Instructions)
	compiler.Recycle(art)
	return s, err
}

// table7MaxErr is the analytic model's largest error against the cycle
// simulator over the six apps (Table 7), stated beside simulator speed.
func table7MaxErr(l *layerRun) float64 {
	rows, err := experiments.Table7()
	l.traced.check("Table7", err)
	worst := 0.0
	for _, row := range rows {
		worst = max(worst, row.DiffPct)
	}
	return worst
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
