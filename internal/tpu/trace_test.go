package tpu

import (
	"strings"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/isa"
	"tpusim/internal/models"
)

func tracedRun(t *testing.T) (*Device, Counters) {
	t.Helper()
	b, err := models.ByName("MLP1")
	if err != nil {
		t.Fatal(err)
	}
	art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Trace = true
	dev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dev.Run(art.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dev, c
}

func TestTraceRecordsAllUnits(t *testing.T) {
	dev, _ := tracedRun(t)
	occ := UnitOccupancy(dev.Trace())
	for _, unit := range []string{"matrix", "shift", "dram", "activation", "pcie", "sync"} {
		if occ[unit] <= 0 {
			t.Errorf("no %s occupancy recorded", unit)
		}
	}
}

func TestTraceConsistentWithCounters(t *testing.T) {
	dev, c := tracedRun(t)
	occ := UnitOccupancy(dev.Trace())
	// Matrix occupancy in the trace equals the MatrixActive counter.
	if int64(occ["matrix"]) != c.MatrixActive {
		t.Errorf("trace matrix %v != counter %d", occ["matrix"], c.MatrixActive)
	}
	// DRAM occupancy equals tiles * fetch cycles.
	wantDram := float64(c.WeightTilesFetched) * 64 * 1024 / (34e9 / 700e6)
	if occ["dram"] < wantDram*0.99 || occ["dram"] > wantDram*1.01 {
		t.Errorf("trace dram %v != expected %v", occ["dram"], wantDram)
	}
}

func TestTraceEventsWellFormed(t *testing.T) {
	dev, c := tracedRun(t)
	for _, e := range dev.Trace() {
		if e.End < e.Start {
			t.Fatalf("event %+v ends before it starts", e)
		}
		if e.End > float64(c.Cycles)+1 {
			t.Fatalf("event %+v ends after the run (%d cycles)", e, c.Cycles)
		}
		if e.Duration() < 0 {
			t.Fatalf("negative duration: %+v", e)
		}
	}
}

func TestTracePerUnitSerialization(t *testing.T) {
	// Events on the same unit never overlap: each functional unit is a
	// single resource.
	dev, _ := tracedRun(t)
	lastEnd := map[string]float64{}
	for _, e := range dev.Trace() {
		if e.Unit == "sync" {
			continue // sync windows describe waiting, not a busy resource
		}
		if e.Start < lastEnd[e.Unit]-1e-9 {
			t.Fatalf("%s overlaps: event at %v starts before previous end %v", e.Unit, e.Start, lastEnd[e.Unit])
		}
		if e.End > lastEnd[e.Unit] {
			lastEnd[e.Unit] = e.End
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	dev, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := &isa.Program{Name: "nop", Instructions: []isa.Instruction{{Op: isa.OpNop}, {Op: isa.OpHalt}}}
	if _, err := dev.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if len(dev.Trace()) != 0 {
		t.Error("trace recorded without Config.Trace")
	}
}

func TestRenderTimeline(t *testing.T) {
	dev, _ := tracedRun(t)
	s := RenderTimeline(dev.Trace(), 10)
	if !strings.Contains(s, "matrix") && !strings.Contains(s, "dram") && !strings.Contains(s, "pcie") {
		t.Errorf("timeline missing units:\n%s", s)
	}
	lines := strings.Count(s, "\n")
	if lines != 11 { // header + 10 events
		t.Errorf("timeline has %d lines, want 11", lines)
	}
	full := RenderTimeline(dev.Trace(), 0)
	if strings.Count(full, "\n") != len(dev.Trace())+1 {
		t.Error("unlimited timeline truncated")
	}
}
