package tpu

import (
	"strings"
	"testing"
	"time"

	"tpusim/internal/isa"
)

func spanFixture() []TraceEvent {
	return []TraceEvent{
		{Index: 0, Op: isa.OpReadHostMemory, Unit: "pcie", Start: 0, End: 100},
		{Index: 1, Op: isa.OpMatrixMultiply, Unit: "matrix", Start: 100, End: 400},
		{Index: 1, Op: isa.OpMatrixMultiply, Unit: "shift", Start: 90, End: 110},
		{Index: 2, Op: isa.OpActivate, Unit: "activation", Start: 400, End: 500},
	}
}

func TestTraceSpansMapping(t *testing.T) {
	base := time.Unix(100, 0)
	// 1 us per cycle: cycle windows map to microsecond wall windows.
	spans := TraceSpans(spanFixture(), SpanMapping{
		Base: base, SecondsPerCycle: 1e-6,
		Track: "tpu3", Trace: 9, Parent: 42,
	})
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	m := spans[1]
	if m.Trace != 9 || m.Parent != 42 {
		t.Errorf("span not stitched into trace: trace=%d parent=%d", m.Trace, m.Parent)
	}
	if m.Track != "tpu3/matrix" {
		t.Errorf("track %q, want tpu3/matrix", m.Track)
	}
	if m.Name != isa.OpMatrixMultiply.String() {
		t.Errorf("span named %q, want the opcode", m.Name)
	}
	if want := base.Add(100 * time.Microsecond); !m.Start.Equal(want) {
		t.Errorf("start %v, want %v", m.Start, want)
	}
	if want := base.Add(400 * time.Microsecond); !m.End.Equal(want) {
		t.Errorf("end %v, want %v", m.End, want)
	}
	// Cycle truth preserved in attrs (attr values are rendered strings).
	attrs := map[string]string{}
	for _, a := range m.Attrs {
		attrs[a.Key] = a.Value()
	}
	if attrs["cycle_start"] != "100" || attrs["cycle_end"] != "400" || attrs["instr"] != "1" {
		t.Errorf("cycle attrs lost: %v", attrs)
	}
	// Local id minting: ids unique and nonzero.
	seen := map[uint64]bool{}
	for _, s := range spans {
		if s.ID == 0 || seen[s.ID] {
			t.Fatalf("bad span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestTraceSpansMaxEvents(t *testing.T) {
	spans := TraceSpans(spanFixture(), SpanMapping{SecondsPerCycle: 1e-9, MaxEvents: 2})
	if len(spans) != 2 {
		t.Errorf("MaxEvents(2) kept %d spans", len(spans))
	}
	if got := TraceSpans(nil, SpanMapping{}); len(got) != 0 {
		t.Errorf("nil events produced %d spans", len(got))
	}
}

func TestTraceSpansExternalIDs(t *testing.T) {
	next := uint64(1000)
	spans := TraceSpans(spanFixture()[:2], SpanMapping{
		SecondsPerCycle: 1e-9,
		NextID:          func() uint64 { next++; return next },
	})
	if spans[0].ID != 1001 || spans[1].ID != 1002 {
		t.Errorf("external id minting ignored: %d %d", spans[0].ID, spans[1].ID)
	}
}

// TestRenderUnitOccupancy pins the blessed deterministic rendering: units
// sorted by descending busy cycles, shares against the total.
func TestRenderUnitOccupancy(t *testing.T) {
	s := RenderUnitOccupancy(spanFixture(), 500)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // header + 4 units
		t.Fatalf("rendering has %d lines, want 5:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "unit") || !strings.Contains(lines[0], "share") {
		t.Errorf("bad header %q", lines[0])
	}
	// matrix(300) > pcie(100) = activation(100) > shift(20); ties by name.
	wantOrder := []string{"matrix", "activation", "pcie", "shift"}
	for i, unit := range wantOrder {
		if !strings.HasPrefix(lines[i+1], unit) {
			t.Errorf("line %d is %q, want unit %s", i+1, lines[i+1], unit)
		}
	}
	if !strings.Contains(lines[1], "60.0%") {
		t.Errorf("matrix share wrong in %q (want 300/500 = 60.0%%)", lines[1])
	}
	// Zero total cycles: shares degrade to 0, no divide-by-zero.
	if z := RenderUnitOccupancy(spanFixture(), 0); !strings.Contains(z, "0.0%") {
		t.Errorf("zero-total rendering bad:\n%s", z)
	}
	// Determinism: two renderings are byte-identical.
	if s != RenderUnitOccupancy(spanFixture(), 500) {
		t.Error("rendering is not deterministic")
	}
}
