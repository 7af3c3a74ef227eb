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

// runConfig simulates one app under a device configuration and a compile
// option set.
func runConfig(name string, cfg tpu.Config, opts compiler.Options) (int64, error) {
	b, err := models.ByName(name)
	if err != nil {
		return 0, err
	}
	art, err := compiler.CompileShape(b.Model, opts)
	if err != nil {
		return 0, err
	}
	dev, err := tpu.New(cfg)
	if err != nil {
		return 0, err
	}
	c, err := dev.Run(art.Program, nil)
	if err != nil {
		return 0, err
	}
	return c.Cycles, nil
}

// FIFODepthAblation sweeps the weight FIFO depth (the shipped TPU uses 4):
// design validation that four tiles of buffering suffice to decouple the
// DRAM from the matrix unit.
func FIFODepthAblation() ([]AblationRow, error) {
	opts := compiler.Options{Allocator: compiler.Reuse}
	var rows []AblationRow
	for _, name := range models.Names() {
		base, err := runConfig(name, tpu.DefaultConfig(), opts)
		if err != nil {
			return nil, err
		}
		for _, depth := range []int{1, 2, 4, 8} {
			cfg := tpu.DefaultConfig()
			cfg.FIFODepth = depth
			cycles, err := runConfig(name, cfg, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				App: name, Config: fmt.Sprintf("fifo=%d", depth),
				Cycles: cycles, Relative: float64(base) / float64(cycles),
			})
		}
	}
	return rows, nil
}

// PrecisionAblation compares 8-bit, mixed, and 16-bit operand modes
// (Section 2: half speed with one 16-bit operand, quarter speed with two).
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
	var rows []AblationRow
	for _, name := range models.Names() {
		base, err := runConfig(name, tpu.DefaultConfig(), modes[0].opts)
		if err != nil {
			return nil, err
		}
		for _, mode := range modes {
			cycles, err := runConfig(name, tpu.DefaultConfig(), mode.opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{
				App: name, Config: mode.name,
				Cycles: cycles, Relative: float64(base) / float64(cycles),
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
