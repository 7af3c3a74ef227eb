package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tpusim/internal/systolic/kerneltest"
)

// update regenerates the golden files:
//
//	go test ./internal/experiments -run 'TestGolden|TestSaturation|TestClusterChaos|TestRollout' -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got with testdata/golden/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\nRegenerate with -update if the change is intentional.",
			name, got, want)
	}
}

// goldenFile names a section's golden: Table 2 is table2.txt, Figure 10
// figure10.txt, Section 8 section8.txt, the first ablation ablation1.txt;
// an ID without a number names its own file.
func goldenFile(id string) string {
	i := strings.IndexAny(id, "0123456789")
	if i < 0 {
		return id + ".txt"
	}
	long := map[string]string{"t": "table", "f": "figure", "s": "section", "ab": "ablation"}[id[:i]]
	return long + id[i:] + ".txt"
}

// goldens pins, by file, every section of tpubench's report, its -csv
// output without the host-dependent kernel line, and tpuserve's default
// load sweep. Every generator is seeded and deterministic, so any drift in
// the simulator, the perf model or a renderer shows up as a readable diff
// against testdata/golden/. sla and the load sweep reuse the results
// SLAStudy and LoadSweepAll compute once per process.
func goldens() map[string]func() (string, error) {
	g := map[string]func() (string, error){
		"csv.txt": CSV,
		"load_sweep.txt": func() (string, error) {
			rows, err := LoadSweepAll()
			if err != nil {
				return "", err
			}
			return RenderLoadSweep(rows), nil
		},
	}
	for _, s := range Sections {
		g[goldenFile(s.ID)] = s.Render
	}
	return g
}

func TestGoldenTables(t *testing.T) {
	for name, gen := range goldens() {
		t.Run(name, func(t *testing.T) {
			got, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			if got == "" {
				t.Fatal("empty rendering")
			}
			checkGolden(t, name, got)
		})
	}
}

// TestGoldenQuantUnderEachKernel: quant is the one section whose generator
// runs the functional int8 datapath, so it is the one whose bytes could
// follow the matrix kernel rung; every rung must print the same golden.
func TestGoldenQuantUnderEachKernel(t *testing.T) {
	kerneltest.Each(t, func(t *testing.T) {
		got, err := goldens()["quant.txt"]()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "quant.txt", got)
	})
}

// TestGoldenDeterministic guards the premise of golden testing: rendering
// twice gives byte-identical output (all randomness is seeded, caches are
// transparent).
func TestGoldenDeterministic(t *testing.T) {
	for name, gen := range goldens() {
		a, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s renders nondeterministically", name)
		}
	}
}
