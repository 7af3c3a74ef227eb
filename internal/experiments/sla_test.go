package experiments

import (
	"strings"
	"testing"
)

// TestSLAStudy: under the 7 ms p99 limit the TPU beats the CPU and GPU for
// every app that has any feasible operating point, usually by an order of
// magnitude — the headline claim at the operating regime that matters.
func TestSLAStudy(t *testing.T) {
	rows, err := SLAStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("%d rows, want 18", len(rows))
	}
	byKey := map[string]SLARow{}
	for _, r := range rows {
		byKey[r.App+"/"+r.Platform] = r
		if r.Batch > 0 && r.P99Ms > 7.01 {
			t.Errorf("%s/%s: reported point violates the SLA (%.1f ms)", r.App, r.Platform, r.P99Ms)
		}
	}
	for _, app := range []string{"MLP0", "MLP1", "LSTM0", "LSTM1", "CNN0"} {
		tpu := byKey[app+"/TPU"]
		cpu := byKey[app+"/CPU"]
		if tpu.Batch == 0 {
			t.Errorf("%s: TPU has no SLA-compliant point", app)
			continue
		}
		if cpu.Batch > 0 && tpu.IPS < cpu.IPS {
			t.Errorf("%s: TPU %.0f IPS below CPU %.0f under the SLA", app, tpu.IPS, cpu.IPS)
		}
	}
	// MLP0 specifically: the TPU's advantage is enormous (paper: 41x).
	if r := byKey["MLP0/TPU"]; r.IPS < 10*byKey["MLP0/CPU"].IPS {
		t.Errorf("MLP0: TPU %.0f vs CPU %.0f — advantage too small", r.IPS, byKey["MLP0/CPU"].IPS)
	}
	if s := renderSLA(rows); !strings.Contains(s, "MLP0") {
		t.Error("render incomplete")
	}
}

// TestSLACNN1CannotMeetSevenMs: streaming CNN1's ~100M weights (padded
// tiles plus per-chunk conv re-fetch) alone takes more than 7 ms at 34
// GB/s, so no batch size meets the limit in our model. The paper's CNN1
// sat right at the edge (4,700 IPS at batch 32 ~ 6.8 ms per batch) and was
// the one throughput-oriented app; this is the deadline regime not binding.
func TestSLACNN1CannotMeetSevenMs(t *testing.T) {
	rows, err := SLAStudy()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.App == "CNN1" && r.Platform == "TPU" {
			if r.Batch != 0 {
				t.Logf("note: CNN1/TPU found an SLA point at batch %d (%.0f IPS)", r.Batch, r.IPS)
			}
			return
		}
	}
	t.Fatal("CNN1/TPU row missing")
}
