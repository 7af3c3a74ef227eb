// The fleet's data-integrity tier: Resilience.Integrity, the
// tpu.IntegrityLevel every device is built with (ABFT, CRC/parity
// sidecars, PCIe frames), and the runtime recovery ladder above it. A detected SDC fails
// the attempt with a clean device — the resilient path retries it (scrubbing
// the weight DRAM of the implicated device first, so persistent corruption
// does not fail the retry too), fails over, and feeds the device's health
// machine so a part that keeps corrupting data walks to quarantine exactly
// like one that keeps dying.
package runtime

import (
	"context"

	"tpusim/internal/tpu"
)

// readySlots snapshots the driver's successfully loaded models. A slot is
// marked loaded under d.mu after its load completes, so sl.dev and sl.p are
// safe to read from the snapshot.
func (d *Driver) readySlots() []*slot {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ready []*slot
	for _, sl := range d.slots {
		if sl.loaded {
			ready = append(ready, sl)
		}
	}
	return ready
}

// IntegrityStats aggregates the lifetime integrity ledger across every
// loaded model's device on this driver. Safe to call concurrently with
// runs (each device's ledger is mutex-guarded).
func (d *Driver) IntegrityStats() tpu.IntegrityStats {
	var agg tpu.IntegrityStats
	for _, sl := range d.readySlots() {
		agg.Add(sl.dev.IntegrityStats())
	}
	return agg
}

// Scrub runs one weight-DRAM scrub pass over every loaded model's device,
// repairing corrupt tiles from each program's golden weight image. Each
// device is scrubbed under its run semaphore, so scrubbing never races a
// run; a cancelled ctx abandons the remaining devices.
func (d *Driver) Scrub(ctx context.Context) (scanned, repaired int) {
	for _, sl := range d.readySlots() {
		if err := sl.acquire(ctx); err != nil {
			return scanned, repaired
		}
		s, r := sl.dev.Scrub()
		sl.release()
		scanned += s
		repaired += r
	}
	return scanned, repaired
}

// IntegrityStats aggregates the integrity ledger fleet-wide.
func (s *Server) IntegrityStats() tpu.IntegrityStats {
	var agg tpu.IntegrityStats
	for _, d := range s.drivers {
		agg.Add(d.IntegrityStats())
	}
	return agg
}

// Scrub runs one scrub pass over every device on the server.
func (s *Server) Scrub(ctx context.Context) (scanned, repaired int) {
	for _, d := range s.drivers {
		sc, rp := d.Scrub(ctx)
		scanned += sc
		repaired += rp
	}
	return scanned, repaired
}

// scrubOnSDC is the reactive scrub: an attempt just failed with a detected
// corruption on dev, so sweep that device's weight DRAM before anything
// retries onto it — a persistent weight upset would otherwise fail every
// future fetch of the damaged tile at the Detect tier.
func (s *Server) scrubOnSDC(ctx context.Context, dev int) {
	_, repaired := s.drivers[dev].Scrub(ctx)
	if repaired > 0 {
		_, logger := s.sinks()
		logger.Info("integrity scrub repaired weight tiles",
			"device", s.drivers[dev].label, "tiles", repaired)
	}
}
