// Command tpusim compiles one of the paper's six benchmarks and runs it on
// the TPU simulator, printing the performance-counter report of Table 3.
//
//	tpusim -model MLP0                 # full-size timing simulation
//	tpusim -model CNN1 -batch 128      # batch override
//	tpusim -model LSTM0 -functional    # miniature model, real datapath
//	tpusim -model MLP0 -disassemble    # dump the instruction stream
//	tpusim -model MLP0 -trace-json t.json  # Perfetto-loadable unit timeline
//
// -trace-json exports the run's unit-occupancy timeline as Chrome
// trace-event JSON: one track per functional unit, spans in true device
// time (cycles scaled by the configured clock), loadable at
// ui.perfetto.dev. It also prints the sorted per-unit occupancy summary.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tpusim/internal/compiler"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/obs"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tpusim: ")
	model := flag.String("model", "MLP0", "benchmark name (MLP0 MLP1 LSTM0 LSTM1 CNN0 CNN1)")
	batch := flag.Int("batch", 0, "override the production batch size")
	functional := flag.Bool("functional", false, "run a miniature variant through the real datapath")
	disassemble := flag.Bool("disassemble", false, "print the compiled instruction stream")
	trace := flag.Int("trace", 0, "print the first N unit-occupancy trace events")
	traceJSON := flag.String("trace-json", "", "write the unit-occupancy timeline as Chrome trace-event JSON to this file")
	layers := flag.Bool("layers", false, "print the per-layer cycle profile")
	clock := flag.Float64("clock", 700, "clock rate in MHz")
	memGBs := flag.Float64("membw", 34, "weight memory bandwidth in GB/s (use ~184 for TPU')")
	flag.Parse()
	if *batch < 0 {
		log.Printf("-batch: %d is negative (0 keeps the production batch)", *batch)
		os.Exit(2)
	}

	cfg := tpu.DefaultConfig()
	cfg.ClockMHz = *clock
	cfg.WeightGBs = *memGBs
	cfg.Trace = *trace > 0 || *traceJSON != ""

	var art *compiler.Artifact
	var host []int8
	if *functional {
		m, err := models.Tiny(*model)
		if err != nil {
			log.Fatal(err)
		}
		params := nn.InitRandom(m, 1, 0.25)
		in := tensor.NewF32(m.BatchInputShape()...)
		in.FillRandom(2, 1)
		qm, err := nn.QuantizeModel(m, params, in)
		if err != nil {
			log.Fatal(err)
		}
		art, err = compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse, BatchOverride: *batch})
		if err != nil {
			log.Fatal(err)
		}
		host, err = compiler.PackInput(art, qm.QuantizeInput(in))
		if err != nil {
			log.Fatal(err)
		}
		cfg.Functional = true
	} else {
		b, err := models.ByName(*model)
		if err != nil {
			log.Fatal(err)
		}
		art, err = compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse, BatchOverride: *batch})
		if err != nil {
			log.Fatal(err)
		}
	}

	if *disassemble {
		fmt.Print(art.Program.Disassemble())
		return
	}

	dev, err := tpu.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c, err := dev.Run(art.Program, host)
	if err != nil {
		log.Fatal(err)
	}
	if *trace > 0 {
		fmt.Print(tpu.RenderTimeline(dev.Trace(), *trace))
		fmt.Println()
	}
	if *traceJSON != "" {
		if err := exportTrace(*traceJSON, dev.Trace(), art.Program.Name, cfg.ClockMHz, c.Cycles); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (load at ui.perfetto.dev)\n\n", len(dev.Trace()), *traceJSON)
		fmt.Print(tpu.RenderUnitOccupancy(dev.Trace(), c.Cycles))
		fmt.Println()
	}
	if *layers {
		b, err := models.ByName(*model)
		var names []string
		if err == nil {
			for _, l := range b.Model.Layers {
				names = append(names, l.Name)
			}
		}
		fmt.Print(tpu.RenderLayerProfile(dev.LayerProfile(), names, c.Cycles))
		fmt.Println()
	}
	fmt.Printf("model %s  batch %d  clock %.0f MHz  weight bw %.0f GB/s\n",
		art.Program.Name, art.Layout.Batch, cfg.ClockMHz, cfg.WeightGBs)
	fmt.Printf("weight tiles %d  UB peak %.1f MiB\n\n", art.WeightTiles, float64(art.UBPeakBytes)/(1<<20))
	fmt.Print(c.String())
	fmt.Printf("\ndelivered             %11.1f TOPS\n", c.TeraOps(cfg.ClockMHz))
	fmt.Printf("batch time            %11.0f us\n", c.Seconds(cfg.ClockMHz)*1e6)
	fmt.Printf("inferences/second     %11.0f\n", float64(art.Layout.Batch)/c.Seconds(cfg.ClockMHz))
}

// exportTrace writes the device's unit-occupancy timeline as Chrome
// trace-event JSON in true device time: cycle 0 anchors at the epoch and
// one cycle spans 1/(MHz*1e6) seconds, so the Perfetto timebar reads as
// real device microseconds. A root span covering the whole run frames the
// per-unit tracks.
func exportTrace(path string, events []tpu.TraceEvent, name string, clockMHz float64, cycles int64) error {
	base := time.Unix(0, 0).UTC()
	secondsPerCycle := 1 / (clockMHz * 1e6)
	spans := tpu.TraceSpans(events, tpu.SpanMapping{
		Base:            base,
		SecondsPerCycle: secondsPerCycle,
		Track:           "tpu0",
		Trace:           1,
		Parent:          1 << 62, // root id outside TraceSpans' local counter range
	})
	root := obs.SpanData{
		Trace: 1, ID: 1 << 62, Name: name, Track: "tpu0",
		Start: base,
		End:   base.Add(time.Duration(float64(cycles) * secondsPerCycle * float64(time.Second))),
		Attrs: []obs.Attr{
			obs.Int64("cycles", cycles),
			obs.Float("clock_mhz", clockMHz),
		},
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, append([]obs.SpanData{root}, spans...)); err != nil {
		return err
	}
	return f.Close()
}
