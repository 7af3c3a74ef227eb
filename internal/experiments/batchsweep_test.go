package experiments

import "testing"

// TestBatchSweepMonotonic: for a memory-bound MLP, throughput rises with
// batch (weights amortized over more examples) and so does latency — the
// fundamental trade-off of Table 4.
func TestBatchSweepMonotonic(t *testing.T) {
	rows, err := BatchSweep("MLP0", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		// Throughput rises with batch until the batch no longer fits the
		// accumulator file in one chunk (512 rows x 8 column tiles =
		// 4096); past that, weight tiles re-stream per chunk and
		// throughput drops — a real capacity cliff of the design.
		if rows[i].Batch <= 512 && rows[i].IPS < rows[i-1].IPS*0.99 {
			t.Errorf("IPS fell from %.0f to %.0f at batch %d",
				rows[i-1].IPS, rows[i].IPS, rows[i].Batch)
		}
		if rows[i].LatencyMs <= rows[i-1].LatencyMs {
			t.Errorf("latency fell from %.2f to %.2f ms at batch %d",
				rows[i-1].LatencyMs, rows[i].LatencyMs, rows[i].Batch)
		}
	}
	// The cliff itself: batch 1024 is slower per inference than 512.
	var ips512, ips1024 float64
	for _, r := range rows {
		if r.Batch == 512 {
			ips512 = r.IPS
		}
		if r.Batch == 1024 {
			ips1024 = r.IPS
		}
	}
	if ips1024 >= ips512 {
		t.Errorf("expected the accumulator-capacity cliff: %.0f IPS at 512 vs %.0f at 1024", ips512, ips1024)
	}
}

// TestBatchSweepDiminishingForCNN: CNN0 is compute bound, so batch size
// barely changes its TOPS.
func TestBatchSweepDiminishingForCNN(t *testing.T) {
	rows, err := BatchSweep("CNN0", []int{4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	first, last := rows[0].TOPS, rows[len(rows)-1].TOPS
	if last > first*1.5 {
		t.Errorf("CNN0 TOPS grew %0.1f -> %0.1f with batch; compute-bound apps should saturate", first, last)
	}
}

// TestBatchSweepMLP0ProductionPoint: at the production batch of 200 the
// sweep should agree with the cycle simulator within the Table 7 bound.
func TestBatchSweepMLP0ProductionPoint(t *testing.T) {
	rows, err := BatchSweep("MLP0", []int{200})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := SimulateTPU("MLP0")
	if err != nil {
		t.Fatal(err)
	}
	rel := rows[0].IPS / sim.IPS
	if rel < 0.9 || rel > 1.1 {
		t.Errorf("sweep IPS %.0f vs simulator %.0f: %.0f%% apart", rows[0].IPS, sim.IPS, (rel-1)*100)
	}
}

func TestBatchSweepErrors(t *testing.T) {
	if _, err := BatchSweep("nope", nil); err == nil {
		t.Error("unknown app accepted")
	}
}
