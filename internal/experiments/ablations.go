package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/compiler"
	"tpusim/internal/models"
	"tpusim/internal/tpu"
)

// AblationRow is one (app, configuration) cycle count relative to the
// production configuration.
type AblationRow struct {
	App      string
	Config   string
	Cycles   int64
	Relative float64 // production cycles / these cycles (speedup > 1 is faster)
}

// appCycles compiles each app once, shape-only, under opts and runs that
// program on one device per configuration: cycles[app][cfg], apps in
// Table 1 order. A program depends on no device knob, and a timing run
// resets all run state, so each device is built once and runs every app.
func appCycles(opts compiler.Options, cfgs ...tpu.Config) ([][]int64, error) {
	devs := make([]*tpu.Device, len(cfgs))
	for i, cfg := range cfgs {
		dev, err := tpu.New(cfg)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	names := models.Names()
	cycles := make([][]int64, len(names))
	for i, name := range names {
		b, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		art, err := compiler.CompileShape(b.Model, opts)
		if err != nil {
			return nil, err
		}
		cycles[i] = make([]int64, len(devs))
		for j, dev := range devs {
			c, err := dev.Run(art.Program, nil)
			if err != nil {
				return nil, err
			}
			cycles[i][j] = c.Cycles
		}
	}
	return cycles, nil
}

// FIFODepthAblation sweeps the weight FIFO depth (the shipped TPU uses 4):
// design validation that four tiles of buffering suffice to decouple the
// DRAM from the matrix unit.
func FIFODepthAblation() ([]AblationRow, error) {
	depths := []int{1, 2, 4, 8}
	const base = 2 // the production depth, 4
	cfgs := make([]tpu.Config, len(depths))
	for i, depth := range depths {
		cfgs[i] = tpu.DefaultConfig()
		cfgs[i].FIFODepth = depth
	}
	cycles, err := appCycles(compiler.Options{Allocator: compiler.Reuse}, cfgs...)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, name := range models.Names() {
		for j, depth := range depths {
			rows = append(rows, AblationRow{
				App: name, Config: fmt.Sprintf("fifo=%d", depth),
				Cycles: cycles[i][j], Relative: float64(cycles[i][base]) / float64(cycles[i][j]),
			})
		}
	}
	return rows, nil
}

// PrecisionAblation compares 8-bit, mixed, and 16-bit operand modes
// (Section 2: half speed with one 16-bit operand, quarter speed with two).
// The base is the production mode, int8.
func PrecisionAblation() ([]AblationRow, error) {
	modes := []struct {
		name string
		opts compiler.Options
	}{
		{"int8", compiler.Options{Allocator: compiler.Reuse}},
		// 16-bit activations halve the MAC rate but leave weight traffic
		// alone: memory-bound apps barely notice.
		{"a16", compiler.Options{Allocator: compiler.Reuse, Acts16: true}},
		// 16-bit weights halve the MAC rate AND double weight traffic
		// (128-row tiles): everyone pays.
		{"w16", compiler.Options{Allocator: compiler.Reuse, Weights16: true}},
		{"w16a16", compiler.Options{Allocator: compiler.Reuse, Weights16: true, Acts16: true}},
	}
	cycles := make([][][]int64, len(modes)) // [mode][app][0]
	for m, mode := range modes {
		c, err := appCycles(mode.opts, tpu.DefaultConfig())
		if err != nil {
			return nil, err
		}
		cycles[m] = c
	}
	var rows []AblationRow
	for i, name := range models.Names() {
		for m, mode := range modes {
			rows = append(rows, AblationRow{
				App: name, Config: mode.name,
				Cycles: cycles[m][i][0], Relative: float64(cycles[0][i][0]) / float64(cycles[m][i][0]),
			})
		}
	}
	return rows, nil
}

// AllocatorAblation compares the naive and reuse Unified Buffer allocators'
// effect on cycle time (none — allocation changes capacity, not speed) and
// reports peak usage, the Table 8 design story as an ablation.
func AllocatorAblation() ([]AblationRow, error) {
	var rows []AblationRow
	for _, name := range models.Names() {
		b, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		for _, kind := range []compiler.Kind{compiler.Naive, compiler.Reuse} {
			art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: kind})
			if err != nil {
				// The naive allocator can exhaust the buffer (CNN1).
				rows = append(rows, AblationRow{App: name, Config: kind.String(), Cycles: -1})
				continue
			}
			rows = append(rows, AblationRow{
				App: name, Config: kind.String(),
				Cycles: int64(art.UBPeakBytes), Relative: 1,
			})
		}
	}
	return rows, nil
}

// renderAblations returns the renderer of one ablation's rows, grouped by
// app under title, its measure in the unit column.
func renderAblations(title, unit string) func([]AblationRow) string {
	return func(rows []AblationRow) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s\n%-6s %-10s %14s %10s\n", title, "App", "Config", unit, "vs base")
		for _, r := range rows {
			if r.Cycles < 0 {
				fmt.Fprintf(&b, "%-6s %-10s %14s %10s\n", r.App, r.Config, "exhausted", "-")
				continue
			}
			fmt.Fprintf(&b, "%-6s %-10s %14d %9.2fx\n", r.App, r.Config, r.Cycles, r.Relative)
		}
		return b.String()
	}
}
