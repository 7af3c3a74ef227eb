package experiments

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"tpusim/internal/baseline"
	"tpusim/internal/latency"
	"tpusim/internal/models"
)

// SLARow is one platform's best operating point for one app under the 7 ms
// 99th-percentile limit.
type SLARow struct {
	App      string
	Platform string
	// Batch is the throughput-maximizing batch size that still meets the
	// SLA; 0 if no batch meets it.
	Batch int
	IPS   float64
	P99Ms float64
}

var (
	slaOnce sync.Once
	slaRows []SLARow
	slaErr  error
)

// SLAStudy extends Table 4's analysis to all six apps: for each platform,
// sweep batch sizes and keep the highest-throughput point with p99 <= 7 ms.
// This is the operating regime the whole evaluation (Table 6, Figure 9)
// assumes. The result is computed once and cached.
func SLAStudy() ([]SLARow, error) {
	slaOnce.Do(func() { slaRows, slaErr = slaStudy() })
	return slaRows, slaErr
}

func slaStudy() ([]SLARow, error) {
	const (
		slaSeconds = 7e-3
		requests   = 4000
		seed       = 4242
	)
	cpu := baseline.CPU()
	gpu := baseline.GPU()
	var rows []SLARow
	for _, b := range models.All() {
		batches := candidateBatches(b.Model.Batch)
		type plat struct {
			name string
			sm   func(batch int) (float64, error)
		}
		plats := []plat{
			{"CPU", func(n int) (float64, error) { return cpu.BatchSeconds(b, n) }},
			{"GPU", func(n int) (float64, error) { return gpu.BatchSeconds(b, n) }},
			{"TPU", func(n int) (float64, error) { return TPUBatchSeconds(b.Model.Name, n) }},
		}
		for _, p := range plats {
			best := SLARow{App: b.Model.Name, Platform: p.name}
			for _, batch := range batches {
				r, err := latency.MaxRateUnderSLA(latency.ServiceFunc(p.sm), batch, slaSeconds, requests, seed)
				if err != nil {
					continue // this batch cannot meet the SLA
				}
				if r.Throughput > best.IPS {
					best.Batch, best.IPS, best.P99Ms = batch, r.Throughput, r.P99*1e3
				}
			}
			rows = append(rows, best)
		}
	}
	return rows, nil
}

// candidateBatches is the batch sizes the SLA study tries, ascending and
// each once: 8, 16 and half and all of the production batch.
func candidateBatches(prod int) []int {
	var out []int
	for _, b := range []int{8, 16, prod / 2, prod} {
		if b >= 1 {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// renderSLA formats the study grouped by app.
func renderSLA(rows []SLARow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-5s %6s %12s %10s\n", "App", "Plat", "Batch", "IPS @ SLA", "p99 ms")
	for _, r := range rows {
		if r.Batch == 0 {
			fmt.Fprintf(&b, "%-6s %-5s %6s %12s %10s\n", r.App, r.Platform, "-", "misses SLA", "-")
			continue
		}
		fmt.Fprintf(&b, "%-6s %-5s %6d %12.0f %10.1f\n", r.App, r.Platform, r.Batch, r.IPS, r.P99Ms)
	}
	return b.String()
}
