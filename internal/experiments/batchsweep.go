package experiments

import (
	"fmt"
	"strings"

	"tpusim/internal/models"
	"tpusim/internal/perfmodel"
)

// BatchSweepRow is one (app, batch) operating point on the TPU.
type BatchSweepRow struct {
	App       string
	Batch     int
	LatencyMs float64 // one batch, device + host overhead
	IPS       float64
	TOPS      float64
}

// BatchSweep traces throughput/latency vs batch size for one app — the
// mechanism behind Table 4 and Table 6's "the TPU can have larger batch
// sizes and still meet the time limits, increasing operations per byte".
func BatchSweep(name string, batches []int) ([]BatchSweepRow, error) {
	b, err := models.ByName(name)
	if err != nil {
		return nil, err
	}
	if len(batches) == 0 {
		batches = []int{1, 8, 16, 32, 64, 128, 200, 256, 512, 1024}
	}
	var rows []BatchSweepRow
	for _, batch := range batches {
		r, err := perfmodel.Estimate(b.Model, batch, perfmodel.Production())
		if err != nil {
			return nil, err
		}
		dev := r.Seconds(perfmodel.Production())
		total := dev * (1 + b.HostOverheadFrac)
		rows = append(rows, BatchSweepRow{
			App: name, Batch: batch,
			LatencyMs: total * 1e3,
			IPS:       float64(batch) / total,
			TOPS:      r.TeraOps(perfmodel.Production()),
		})
	}
	return rows, nil
}

// renderBatchSweep formats a sweep.
func renderBatchSweep(rows []BatchSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %6s %12s %12s %8s\n", "App", "Batch", "latency ms", "IPS", "TOPS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %6d %12.2f %12.0f %8.1f\n", r.App, r.Batch, r.LatencyMs, r.IPS, r.TOPS)
	}
	return b.String()
}

// batchSweepMLP0CNN0 renders the batch sweeps of MLP0 and CNN0, the two
// ends of the batch-sensitivity range, one after the other.
func batchSweepMLP0CNN0() (string, error) {
	var b strings.Builder
	for _, name := range []string{"MLP0", "CNN0"} {
		rows, err := BatchSweep(name, nil)
		if err != nil {
			return "", err
		}
		b.WriteString(renderBatchSweep(rows))
	}
	return b.String(), nil
}
