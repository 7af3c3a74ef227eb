package tpu

import (
	"fmt"
	"strings"
)

// Counters is the device's performance-counter file. The real TPU exposes
// 106 counters ("and if anything we would like a few more"); these are the
// ones Table 3's analysis is built from, plus traffic and occupancy
// counters the same analysis wants.
type Counters struct {
	// Cycles is total device cycles for the run.
	Cycles int64

	// MatrixActive is cycles the matrix unit spent computing (Table 3
	// row 1 numerator).
	MatrixActive int64
	// UsefulMACCycles is active cycles weighted by the fraction of the
	// 64K MACs holding useful weights (row 2 numerator); MatrixActive -
	// UsefulMACCycles is the "unused MACs" share (row 3).
	UsefulMACCycles float64
	// WeightStall is cycles the matrix unit idled waiting for a weight
	// tile to arrive from Weight Memory (row 4).
	WeightStall int64
	// WeightShift is idle cycles spent shifting a tile into the array that
	// could not hide behind computation (row 5).
	WeightShift int64
	// RAWStall is cycles synchronization waited on a pipeline dependence
	// (row 7): activations of one layer completing before the next layer's
	// matmuls may read the Unified Buffer.
	RAWStall int64
	// InputStall is cycles synchronization waited on PCIe input (row 8).
	InputStall int64

	// DMAInBytes and DMAOutBytes are PCIe traffic.
	DMAInBytes, DMAOutBytes int64
	// WeightTilesFetched counts 64 KiB tile fetches.
	WeightTilesFetched int64

	// Instructions, Matmuls, Activates count executed instructions
	// (expanding repeat fields).
	Instructions, Matmuls, Activates int64

	// IntegrityChecks counts integrity checks executed this run (ABFT rows,
	// CRC sidecar ranges, parity ranges, PCIe frames); IntegrityDetected
	// the checks that caught corruption; IntegrityCorrected the in-place
	// repairs; TilesRecomputed the matmul rows recomputed after ABFT
	// flagged damage algebra could not localize. All zero at IntegrityOff.
	IntegrityChecks, IntegrityDetected, IntegrityCorrected, TilesRecomputed int64

	// MACs is the total useful multiply-accumulate operations performed.
	MACs float64
}

// NonMatrixCycles returns Table 3 row 6: cycles explained by neither matrix
// activity nor weight starvation.
func (c Counters) NonMatrixCycles() int64 {
	n := c.Cycles - c.MatrixActive - c.WeightStall - c.WeightShift
	if n < 0 {
		return 0
	}
	return n
}

// Fractions returns the Table 3 row structure as fractions of total cycles.
type Fractions struct {
	ArrayActive float64 // row 1
	UsefulMACs  float64 // row 2
	UnusedMACs  float64 // row 3
	WeightStall float64 // row 4
	WeightShift float64 // row 5
	NonMatrix   float64 // row 6
	RAWStall    float64 // row 7
	InputStall  float64 // row 8
}

// Fractions computes the Table 3 breakdown.
func (c Counters) Fractions() Fractions {
	if c.Cycles == 0 {
		return Fractions{}
	}
	t := float64(c.Cycles)
	return Fractions{
		ArrayActive: float64(c.MatrixActive) / t,
		UsefulMACs:  c.UsefulMACCycles / t,
		UnusedMACs:  (float64(c.MatrixActive) - c.UsefulMACCycles) / t,
		WeightStall: float64(c.WeightStall) / t,
		WeightShift: float64(c.WeightShift) / t,
		NonMatrix:   float64(c.NonMatrixCycles()) / t,
		RAWStall:    float64(c.RAWStall) / t,
		InputStall:  float64(c.InputStall) / t,
	}
}

// TeraOps returns delivered TeraOps/s (2 ops per MAC, Table 3 row 9) at the
// given clock.
func (c Counters) TeraOps(clockMHz float64) float64 {
	if c.Cycles == 0 {
		return 0
	}
	seconds := float64(c.Cycles) / (clockMHz * 1e6)
	return 2 * c.MACs / seconds / 1e12
}

// Seconds converts the cycle count to wall time at the given clock.
func (c Counters) Seconds(clockMHz float64) float64 {
	return float64(c.Cycles) / (clockMHz * 1e6)
}

// String renders the counter file as a Table 3-style report.
func (c Counters) String() string {
	f := c.Fractions()
	var b strings.Builder
	fmt.Fprintf(&b, "cycles                %12d\n", c.Cycles)
	fmt.Fprintf(&b, "array active          %11.1f%%\n", f.ArrayActive*100)
	fmt.Fprintf(&b, "  useful MACs         %11.1f%%\n", f.UsefulMACs*100)
	fmt.Fprintf(&b, "  unused MACs         %11.1f%%\n", f.UnusedMACs*100)
	fmt.Fprintf(&b, "weight stall          %11.1f%%\n", f.WeightStall*100)
	fmt.Fprintf(&b, "weight shift          %11.1f%%\n", f.WeightShift*100)
	fmt.Fprintf(&b, "non-matrix            %11.1f%%\n", f.NonMatrix*100)
	fmt.Fprintf(&b, "RAW stalls            %11.1f%%\n", f.RAWStall*100)
	fmt.Fprintf(&b, "input stalls          %11.1f%%\n", f.InputStall*100)
	fmt.Fprintf(&b, "instructions          %12d\n", c.Instructions)
	fmt.Fprintf(&b, "weight tiles fetched  %12d\n", c.WeightTilesFetched)
	return b.String()
}
