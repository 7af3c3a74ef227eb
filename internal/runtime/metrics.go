package runtime

// DriverStats is a snapshot of one device's record: its run and compile
// counts and its health.
type DriverStats struct {
	// Device is the telemetry label ("tpu0".."tpu3" on a server).
	Device string
	// Runs is completed inference batches.
	Runs int64
	// Compilations counts the server's compiles that this device's first
	// evaluations ran (a model compiles once per server).
	Compilations int
	// State is the current health state.
	State HealthState
	// Failures counts failed run attempts charged to the device.
	Failures int64
	// Probes counts quarantine probes.
	Probes int64
	// LastError is the most recent failure message, "" when none.
	LastError string
}

// Stats snapshots the driver's record: run and compile counts and health.
func (d *Driver) Stats() DriverStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DriverStats{
		Device:       d.label,
		Runs:         d.runs,
		Compilations: d.compilations,
		State:        d.state,
		Failures:     d.failures,
		Probes:       d.probes,
		LastError:    d.lastErr,
	}
}

// Stats snapshots every device on the server, in device order.
func (s *Server) Stats() []DriverStats {
	out := make([]DriverStats, 0, len(s.drivers))
	for _, d := range s.drivers {
		out = append(out, d.Stats())
	}
	return out
}
