// Package pcie models the host link: the TPU "was designed to be a
// coprocessor on the PCIe I/O bus, allowing it to plug into existing
// servers just as a GPU does", with instructions and data arriving over a
// PCIe Gen3 x16 link the paper calls "relatively slow".
package pcie

// Link is one direction-shared PCIe connection.
type Link struct {
	// GBs is sustained effective bandwidth. PCIe Gen3 x16 is 15.75 GB/s
	// raw; ~14 GB/s is a realistic sustained figure after protocol
	// overhead.
	GBs float64
}

// BytesPerCycle converts the link bandwidth to device-clock bytes/cycle.
func (l Link) BytesPerCycle(clockMHz float64) float64 {
	return l.GBs * 1e9 / (clockMHz * 1e6)
}

// TransferCycles returns device cycles to move n bytes.
func (l Link) TransferCycles(n int64, clockMHz float64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / l.BytesPerCycle(clockMHz)
}
