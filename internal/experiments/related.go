package experiments

import (
	"fmt"
	"strings"
)

// RelatedWorkRow compares the TPU against a Section 9 contemporary on
// published characteristics.
type RelatedWorkRow struct {
	Name      string
	ClockMHz  float64
	MACs      int
	MACBits   string
	OnChipMiB float64
	MemGBs    float64
	Watts     float64
	// PeakTOPS is 2 * MACs * clock.
	PeakTOPS float64
	// TOPSPerWatt is the peak-rate efficiency.
	TOPSPerWatt float64
}

// RelatedWork tabulates Section 9's published accelerator data points
// alongside the TPU: Catapult V1 (the most widely deployed FPGA
// contemporary) and DianNao (the most cited ASIC line). "Perhaps the
// biggest difference is that to get the best performance the user must
// write long programs in ... Verilog" — the numbers alone understate the
// programmability gap.
func RelatedWork() []RelatedWorkRow {
	mk := func(name string, clockMHz float64, macs int, bits string, mib, gbs, watts float64) RelatedWorkRow {
		peak := 2 * float64(macs) * clockMHz * 1e6 / 1e12
		return RelatedWorkRow{
			Name: name, ClockMHz: clockMHz, MACs: macs, MACBits: bits,
			OnChipMiB: mib, MemGBs: gbs, Watts: watts,
			PeakTOPS: peak, TOPSPerWatt: peak / watts,
		}
	}
	return []RelatedWorkRow{
		// "The TPU has a 700 MHz clock, 65,536 8-bit MACs, 28 MiB, 34
		// GB/s, and typically uses 40 Watts."
		mk("TPU", 700, 65536, "8b", 28, 34, 40),
		// "Catapult has a 200 MHz clock, 3,926 18-bit MACs, 5 MiB of
		// on-chip memory, 11 GB/s memory bandwidth, and uses 25 Watts."
		mk("Catapult V1", 200, 3926, "18b", 5, 11, 25),
		// "The original DianNao uses an array of 64 16-bit integer
		// multiply-accumulate units with 44 KB of on-chip memory ... to
		// run at 1 GHz, and to consume 0.5W."
		mk("DianNao", 1000, 64, "16b", 0.043, 0, 0.5),
	}
}

// renderRelatedWork formats the comparison.
func renderRelatedWork(rows []RelatedWorkRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %5s %8s %6s %6s %9s %8s\n",
		"Design", "MHz", "MACs", "bits", "MiB", "GB/s", "Watts", "peakTOPS", "TOPS/W")
	for _, r := range rows {
		gbs := fmt.Sprintf("%.0f", r.MemGBs)
		if r.MemGBs == 0 {
			gbs = "-"
		}
		fmt.Fprintf(&b, "%-12s %6.0f %8d %5s %8.2f %6s %6.1f %9.2f %8.2f\n",
			r.Name, r.ClockMHz, r.MACs, r.MACBits, r.OnChipMiB, gbs, r.Watts,
			r.PeakTOPS, r.TOPSPerWatt)
	}
	b.WriteString("(TPU programs are short TensorFlow graphs; Catapult needs Verilog.)\n")
	return b.String()
}
