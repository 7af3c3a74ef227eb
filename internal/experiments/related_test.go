package experiments

import (
	"strings"
	"testing"
)

// TestRelatedWork checks the Section 9 comparison facts: the TPU has ~17x
// Catapult's MACs at 3.5x its clock, and peak TOPS ~58x.
func TestRelatedWork(t *testing.T) {
	rows := RelatedWork()
	byName := map[string]RelatedWorkRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	tpu, cat := byName["TPU"], byName["Catapult V1"]
	if tpu.MACs != 65536 || cat.MACs != 3926 {
		t.Errorf("MAC counts wrong: %d, %d", tpu.MACs, cat.MACs)
	}
	if ratio := tpu.PeakTOPS / cat.PeakTOPS; ratio < 50 || ratio > 70 {
		t.Errorf("TPU/Catapult peak ratio = %.0f, expect ~58", ratio)
	}
	if tpu.TOPSPerWatt <= cat.TOPSPerWatt {
		t.Error("TPU should lead Catapult on TOPS/W")
	}
	// The TPU's peak must match Table 2's 92 TOPS.
	if tpu.PeakTOPS < 91 || tpu.PeakTOPS > 93 {
		t.Errorf("TPU peak = %.1f, want ~92", tpu.PeakTOPS)
	}
	if s := renderRelatedWork(rows); !strings.Contains(s, "Catapult") || !strings.Contains(s, "DianNao") {
		t.Error("render incomplete")
	}
}
