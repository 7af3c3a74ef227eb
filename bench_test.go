// Package tpusim's root benchmark harness regenerates every table and
// figure of the paper's evaluation (run with `go test -bench=. -benchmem`).
// Each benchmark prints its reproduction once (paper values alongside) and
// then measures the cost of regenerating it.
package tpusim

import (
	"sync"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/experiments"
	"tpusim/internal/fault"
	"tpusim/internal/models"
	"tpusim/internal/tpu"
)

var printOnce sync.Map

func report(b *testing.B, id, text string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(id, true); !loaded {
		b.Logf("%s:\n%s", id, text)
	}
}

// BenchmarkSections regenerates each section of tpubench's report, one
// sub-benchmark per section ID (t1 is Table 1, f5 Figure 5, ...).
func BenchmarkSections(b *testing.B) {
	for _, sec := range experiments.Sections {
		b.Run(sec.ID, func(b *testing.B) {
			var text string
			var err error
			for i := 0; i < b.N; i++ {
				text, err = sec.Render()
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b, sec.Title, text)
		})
	}
}

// BenchmarkTable3 measures the full six-app cycle simulation (compile +
// run), the core of the reproduction: the serial loop bench/'s device_sim
// workload times.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompileAndRunAll(1); err != nil {
			b.Fatal(err)
		}
	}
	rows, err := experiments.Table3()
	if err != nil {
		b.Fatal(err)
	}
	report(b, "Table 3", experiments.RenderTable3(rows))
}

// BenchmarkTable3ZeroRateFault is the six-app compile+simulate loop with
// an *armed* zero-rate fault injector on every device: the hook runs on
// every program execution (one mutex acquire, no PRNG draw, no fault ever
// fires), pricing what a chaos-ready fleet pays when nothing is wrong.
// Read it against BenchmarkTable3; the acceptance bound is <=2% overhead.
// Like experiments.CompileAndRunAll, the loop runs the apps one after
// another, so the two benchmarks differ only in the hook.
func BenchmarkTable3ZeroRateFault(b *testing.B) {
	names := models.Names()
	plan := fault.Plan{Seed: 1} // all rates zero
	injs := make([]*fault.Injector, len(names))
	for j := range injs {
		injs[j] = plan.Injector(j)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, name := range names {
			bm, err := models.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			art, err := compiler.CompileShape(bm.Model, compiler.Options{Allocator: compiler.Reuse})
			if err != nil {
				b.Fatal(err)
			}
			cfg := tpu.DefaultConfig()
			cfg.Hook = injs[j].ArmedHook()
			dev, err := tpu.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dev.Run(art.Program, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// table3IntegrityLoop is the six-app compile+simulate loop at a given
// device integrity level, with `dup` devices executing every program (1 =
// normal, 2 = cross-check duplication), the apps one after another like
// CompileAndRunAll, so the Table 3 benchmarks differ only in the integrity
// knob.
func table3IntegrityLoop(b *testing.B, level tpu.IntegrityLevel, dup int) {
	b.Helper()
	names := models.Names()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			bm, err := models.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			art, err := compiler.CompileShape(bm.Model, compiler.Options{Allocator: compiler.Reuse})
			if err != nil {
				b.Fatal(err)
			}
			for d := 0; d < dup; d++ {
				cfg := tpu.DefaultConfig()
				cfg.Integrity = level
				dev, err := tpu.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dev.Run(art.Program, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTable3IntegrityOff is the integrity loop's own baseline: the
// same code shape as the Detect/Duplicated variants with every check off,
// so the three integrity benchmarks are directly comparable.
func BenchmarkTable3IntegrityOff(b *testing.B) {
	table3IntegrityLoop(b, tpu.IntegrityOff, 1)
}

// BenchmarkTable3IntegrityDetect prices the detect tier end to end: ABFT
// checksum columns on every matmul row, CRC over weight DRAM/FIFO and the
// consumed UB spans, accumulator parity, and the 2/256 ABFT timing charge.
// Read it against BenchmarkTable3IntegrityOff; the acceptance bound is
// <10% added latency.
func BenchmarkTable3IntegrityDetect(b *testing.B) {
	table3IntegrityLoop(b, tpu.IntegrityDetect, 1)
}

// BenchmarkTable3Duplicated prices what SDC coverage costs without ABFT:
// full duplication, every program executed twice at the Off tier so the
// two outputs could be compared. Read its added cost over the Off baseline
// against the detect tier's — the bound is ABFT at least 2x cheaper than
// duplication.
func BenchmarkTable3Duplicated(b *testing.B) {
	table3IntegrityLoop(b, tpu.IntegrityOff, 2)
}

// BenchmarkSimulatePerApp measures each app's compile+simulate cost
// individually.
func BenchmarkSimulatePerApp(b *testing.B) {
	for _, bm := range models.All() {
		b.Run(bm.Model.Name, func(b *testing.B) {
			art, err := compiler.CompileShape(bm.Model, compiler.Options{Allocator: compiler.Reuse})
			if err != nil {
				b.Fatal(err)
			}
			dev, err := tpu.New(tpu.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var cycles int64
			for i := 0; i < b.N; i++ {
				c, err := dev.Run(art.Program, nil)
				if err != nil {
					b.Fatal(err)
				}
				cycles = c.Cycles
			}
			b.ReportMetric(float64(cycles), "tpu-cycles")
		})
	}
}
