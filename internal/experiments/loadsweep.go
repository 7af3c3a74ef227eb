package experiments

import (
	"fmt"
	"strings"
	"sync"

	"tpusim/internal/latency"
	"tpusim/internal/models"
	"tpusim/internal/serve"
)

// loadSweepFracs are the offered-load fractions of deadline-safe capacity
// each app is swept through: well under the knee, at the knee, and past it.
var loadSweepFracs = []float64{0.25, 0.5, 0.75, 1.0, 1.25}

// LoadPoint is one offered-load operating point of a serving sweep.
type LoadPoint struct {
	// Frac is the offered load as a fraction of deadline-safe capacity.
	Frac float64
	// Result is the virtual-time serving simulation at that load.
	Result serve.SimResult
}

// LoadSweep is one app's latency-bounded-throughput curve: the Table 4 knee
// generalized from MLP0 to all six apps, produced by the deadline-aware
// serving layer rather than the raw batching queue.
type LoadSweep struct {
	App string
	// Plan is the resolved deadline-aware policy: the largest batch whose
	// service time fits the 7 ms SLA, derived fill wait, bounded queue.
	Plan serve.Plan
	// Capacity is the saturation throughput at the safe batch.
	Capacity float64
	// Reference is the latency-bounded rate from the independent
	// open-queue bisection (latency.MaxRateUnderSLA) at the safe batch.
	// Zero when no open-queue operating point exists (CNN1: svc(1) is so
	// close to the SLA that any queueing violates it; only a shedding
	// server can hold the deadline there).
	Reference float64
	// Points are the sweep's operating points in increasing load order.
	Points []LoadPoint
}

const (
	loadSweepSLA      = 7e-3
	loadSweepRequests = 12000
	loadSweepSeed     = 99
)

var (
	loadSweepOnce sync.Once
	loadSweepRows []LoadSweep
	loadSweepErr  error
)

// LoadSweepAll sweeps every app through the serving layer at increasing
// arrival rates, reproducing the latency-bounded-throughput knee: achieved
// throughput tracks offered load until deadline-safe capacity, then
// flattens while the p99 of served requests stays inside the 7 ms SLA
// (overload is absorbed by shedding, not by latency). The result is
// computed once and cached.
func LoadSweepAll() ([]LoadSweep, error) {
	loadSweepOnce.Do(func() { loadSweepRows, loadSweepErr = loadSweepAll() })
	return loadSweepRows, loadSweepErr
}

func loadSweepAll() ([]LoadSweep, error) {
	var rows []LoadSweep
	for _, b := range models.All() {
		row, err := loadSweepApp(b.Model.Name, b.Model.Batch)
		if err != nil {
			return nil, fmt.Errorf("experiments: load sweep %s: %w", b.Model.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func loadSweepApp(name string, prodBatch int) (LoadSweep, error) {
	sm := latency.ServiceFunc(func(n int) (float64, error) { return TPUBatchSeconds(name, n) })
	pol := serve.Policy{MaxBatch: prodBatch, SLASeconds: loadSweepSLA}
	plan, err := pol.Resolve(sm)
	if err != nil {
		return LoadSweep{}, err
	}
	row := LoadSweep{
		App:      name,
		Plan:     plan,
		Capacity: float64(plan.SafeBatch) / plan.SafeServiceSeconds,
	}
	// Independent reference: the open-queue bisection at the same batch.
	// It has no shedding, so it does not exist for every service shape.
	if ref, err := latency.MaxRateUnderSLA(sm, plan.SafeBatch, loadSweepSLA, loadSweepRequests, loadSweepSeed); err == nil {
		row.Reference = ref.Throughput
	}
	for _, frac := range loadSweepFracs {
		r, err := serve.Simulate(sm, serve.SimConfig{
			Policy:        pol,
			RatePerSecond: frac * row.Capacity,
			Requests:      loadSweepRequests,
			Seed:          loadSweepSeed,
		})
		if err != nil {
			return LoadSweep{}, err
		}
		row.Points = append(row.Points, LoadPoint{Frac: frac, Result: r})
	}
	return row, nil
}

// RenderLoadSweep formats the sweep as one block per app.
func RenderLoadSweep(rows []LoadSweep) string {
	var b strings.Builder
	b.WriteString("Serving load sweep: deadline-aware batching under the 7 ms p99 SLA\n")
	for _, row := range rows {
		fmt.Fprintf(&b, "\n%s: safe batch %d (svc %.2f ms), capacity %.0f/s",
			row.App, row.Plan.SafeBatch, row.Plan.SafeServiceSeconds*1e3, row.Capacity)
		if row.Reference > 0 {
			fmt.Fprintf(&b, ", open-queue reference %.0f/s", row.Reference)
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "  %5s %10s %10s %8s %9s %6s\n",
			"load", "offered/s", "served/s", "p99 ms", "meanbatch", "shed%")
		for _, p := range row.Points {
			r := p.Result
			fmt.Fprintf(&b, "  %4.0f%% %10.0f %10.0f %8.2f %9.1f %5.1f%%\n",
				p.Frac*100, r.Offered, r.Throughput, r.P99*1e3, r.MeanBatch, r.ShedFrac()*100)
		}
	}
	return b.String()
}
