package runtime

import (
	"io"

	"tpusim/internal/obs"
	"tpusim/internal/tpu"
)

// DriverStats is a snapshot of one device's record: its lifetime accounting
// and health, the material behind the per-device gauges on the ops endpoint.
// Utilization here is the Table 3 headline ratio — matrix-unit active cycles
// over total cycles — computed over everything the device has run since
// creation.
type DriverStats struct {
	// Device is the telemetry label ("tpu0".."tpu3" on a server).
	Device string
	// Runs is completed inference batches.
	Runs int64
	// Cycles is total device cycles across all runs.
	Cycles int64
	// MatrixActive is matrix-unit busy cycles across all runs.
	MatrixActive int64
	// DeviceSeconds is accumulated simulated device time.
	DeviceSeconds float64
	// Compilations counts the server's compiles that this device's first
	// evaluations ran (a model compiles once per server).
	Compilations int
	// ModelsResident is how many models are loaded on the device right now.
	ModelsResident int
	// WeightBytesReserved is the high-water mark of the server's Weight
	// Memory allocator, which places each model at one base on every device.
	WeightBytesReserved uint64
	// Integrity is the lifetime integrity ledger aggregated across every
	// loaded model's device on this driver: checks executed, corruption
	// detected/corrected, rows recomputed, scrub repairs.
	Integrity tpu.IntegrityStats
	// State is the current health state.
	State HealthState
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// Transitions counts health state changes since creation.
	Transitions int64
	// Failures counts failed run attempts charged to the device.
	Failures int64
	// Probes and ProbeFailures count quarantine probes.
	Probes, ProbeFailures int64
	// LastError is the most recent failure message, "" when none.
	LastError string
}

// MatrixUtilization is lifetime matrix-active cycles / total cycles.
func (st DriverStats) MatrixUtilization() float64 {
	if st.Cycles == 0 {
		return 0
	}
	return float64(st.MatrixActive) / float64(st.Cycles)
}

// Stats snapshots the driver's record: lifetime accounting and health.
func (d *Driver) Stats() DriverStats {
	integ := d.IntegrityStats()
	d.srv.mu.Lock()
	reserved := d.srv.weightNext
	d.srv.mu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	return DriverStats{
		Integrity:           integ,
		Device:              d.label,
		Runs:                d.runs,
		Cycles:              d.cycles,
		MatrixActive:        d.matrixActive,
		DeviceSeconds:       d.deviceSeconds,
		Compilations:        d.compilations,
		ModelsResident:      len(d.slots),
		WeightBytesReserved: reserved,
		State:               d.state,
		ConsecutiveFailures: d.consecFail,
		Transitions:         d.transitions,
		Failures:            d.failures,
		Probes:              d.probes,
		ProbeFailures:       d.probeFails,
		LastError:           d.lastErr,
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

// WritePrometheus renders the per-device gauges in Prometheus text
// exposition format. Wire it into an obs.Ops collector next to the serving
// registry's exposition:
//
//	ops.AddCollector(func(w io.Writer) { runtimeSrv.WritePrometheus(w) })
func (s *Server) WritePrometheus(w io.Writer) {
	// A failed write is the scraper's to notice: an exposition has no error channel.
	_, _ = w.Write(obs.Render(scrape{s.Stats(), s.ResilienceStats()}, families))
}

// scrape is what one exposition reads: every device's record and the
// server's resilience counters.
type scrape struct {
	stats []DriverStats
	res   ResilienceStats
}

// deviceRows is the row set of the per-device families.
func deviceRows(s scrape) []DriverStats { return s.stats }

var byDevice = []string{"device"}

// families is the runtime's exposition, one row per family.
var families = []obs.Family[scrape]{
	{Name: "tpu_device_runs_total", Type: "counter", Help: "Completed inference batches per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Runs, st.Device) })},
	{Name: "tpu_device_cycles_total", Type: "counter", Help: "Total simulated device cycles per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Cycles, st.Device) })},
	{Name: "tpu_device_busy_seconds_total", Type: "counter", Help: "Accumulated simulated device time per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Float(st.DeviceSeconds, st.Device) })},
	{Name: "tpu_device_matrix_utilization", Type: "gauge", Help: "Lifetime matrix-unit active cycles over total cycles (Table 3 row 1).", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Float(st.MatrixUtilization(), st.Device) })},
	{Name: "tpu_device_compilations_total", Type: "counter", Help: "Slow-path model compilations per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(int64(st.Compilations), st.Device) })},
	{Name: "tpu_device_models_resident", Type: "gauge", Help: "Compiled models currently cached on the device's driver.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(int64(st.ModelsResident), st.Device) })},
	{Name: "tpu_device_weight_bytes_reserved", Type: "gauge", Help: "Weight Memory allocation high-water mark in bytes.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Uint(st.WeightBytesReserved, st.Device) })},

	{Name: "tpu_device_state", Type: "gauge", Help: "Device health state: 0 healthy, 1 degraded, 2 quarantined.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(int64(st.State), st.Device) })},
	{Name: "tpu_device_state_transitions_total", Type: "counter", Help: "Health state transitions per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Transitions, st.Device) })},
	{Name: "tpu_device_failures_total", Type: "counter", Help: "Failed run attempts charged to the device (injected faults and timeouts).", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Failures, st.Device) })},
	{Name: "tpu_device_probes_total", Type: "counter", Help: "Background health probes sent to the device while quarantined.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Probes, st.Device) })},

	{Name: "tpu_integrity_checks_total", Type: "counter", Help: "Integrity checks executed per device (ABFT rows, CRC ranges, parity, PCIe frames).", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Integrity.Checks, st.Device) })},
	{Name: "tpu_integrity_detected_total", Type: "counter", Help: "Integrity checks that caught silent data corruption, per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Integrity.Detected, st.Device) })},
	{Name: "tpu_integrity_corrected_total", Type: "counter", Help: "In-place repairs per device (ABFT algebraic corrections and fetch-time weight-tile repairs).", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Integrity.Corrected, st.Device) })},
	{Name: "tpu_integrity_scrub_repairs_total", Type: "counter", Help: "Weight tiles repaired from the golden image by scrub passes, per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Integrity.ScrubRepairs, st.Device) })},
	{Name: "tpu_integrity_recomputed_tiles_total", Type: "counter", Help: "Matmul rows recomputed after ABFT flagged damage algebra could not localize, per device.", Labels: byDevice, Collect: obs.Each(deviceRows, func(e *obs.Emitter, st DriverStats) { e.Int(st.Integrity.Recomputed, st.Device) })},

	{Name: "tpu_retries_total", Type: "counter", Help: "Run attempts retried after a failed attempt.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.Retries) }},
	{Name: "tpu_failovers_total", Type: "counter", Help: "Requests answered by a device other than the preferred one.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.Failovers) }},
	{Name: "tpu_hedges_total", Type: "counter", Help: "Backup attempts launched after the p99-based hedge delay.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.Hedges) }},
	{Name: "tpu_hedge_wins_total", Type: "counter", Help: "Hedged requests where the backup attempt answered first.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.HedgeWins) }},
	{Name: "tpu_attempt_timeouts_total", Type: "counter", Help: "Attempts cancelled by the per-attempt timeout.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.AttemptTimeouts) }},
	{Name: "tpu_crosscheck_mismatches_total", Type: "counter", Help: "Output cross-checks whose two devices disagreed.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.CrossCheckMismatches) }},
	{Name: "tpu_sdc_failures_total", Type: "counter", Help: "Attempts failed by a device-level integrity check catching corruption before it shipped.", Collect: func(s scrape, e *obs.Emitter) { e.Int(s.res.SDCFailures) }},
}
