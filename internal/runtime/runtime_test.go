package runtime

import (
	"math"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/models"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

func testModel() (*nn.Model, *nn.Params, *tensor.F32) {
	m := &nn.Model{
		Name: "runtime-test", Class: nn.MLP, Batch: 4, TimeSteps: 1,
		Layers: []nn.Layer{
			{Name: "fc0", Kind: nn.FC, In: 16, Out: 16, Act: fixed.ReLU},
			{Name: "fc1", Kind: nn.FC, In: 16, Out: 8, Act: fixed.Identity},
		},
	}
	p := nn.InitRandom(m, 5, 0.25)
	in := tensor.NewF32(4, 16)
	in.FillRandom(6, 1)
	return m, p, in
}

func TestDriverCompileOnceRunMany(t *testing.T) {
	d, err := NewDriver(tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, p, in := testModel()
	r1, err := d.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first run should compile")
	}
	r2, err := d.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second run should hit the program cache")
	}
	if d.Compilations != 1 {
		t.Errorf("compilations = %d, want 1", d.Compilations)
	}
	// Identical inputs give identical outputs (deterministic device).
	for i := range r1.Output.Data {
		if r1.Output.Data[i] != r2.Output.Data[i] {
			t.Fatal("cached run diverged from first run")
		}
	}
	if r1.DeviceSeconds <= 0 {
		t.Error("no device time recorded")
	}
}

func TestDriverOutputMatchesReference(t *testing.T) {
	d, err := NewDriver(tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, p, in := testModel()
	r, err := d.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nn.Forward(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if math.Abs(float64(r.Output.Data[i]-want.Data[i])) > 0.1 {
			t.Fatalf("output[%d] = %v vs reference %v", i, r.Output.Data[i], want.Data[i])
		}
	}
}

func TestDriverInvalidate(t *testing.T) {
	d, _ := NewDriver(tpu.DefaultConfig())
	m, p, in := testModel()
	if _, err := d.Run(m, p, in); err != nil {
		t.Fatal(err)
	}
	cycles := d.ExpectedCycles(m.Name)
	if cycles <= 0 {
		t.Fatalf("ExpectedCycles = %d after a compile, want > 0", cycles)
	}
	d.Invalidate(m.Name)
	if got := d.ExpectedCycles(m.Name); got != 0 {
		t.Errorf("ExpectedCycles = %d after Invalidate, want 0 (not compiled)", got)
	}
	r, err := d.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("run after invalidation should recompile")
	}
	if d.Compilations != 2 {
		t.Errorf("compilations = %d, want 2", d.Compilations)
	}
	if got := d.ExpectedCycles(m.Name); got != cycles {
		t.Errorf("ExpectedCycles = %d after recompiling, want %d", got, cycles)
	}
}

func TestDriverRejectsInvalidModel(t *testing.T) {
	d, _ := NewDriver(tpu.DefaultConfig())
	bad := &nn.Model{Name: "bad"}
	if _, err := d.Run(bad, &nn.Params{}, tensor.NewF32(1, 1)); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestNewDriverBadConfig(t *testing.T) {
	if _, err := NewDriver(tpu.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestServerRoundRobin(t *testing.T) {
	s, err := NewServer(4, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices() != 4 {
		t.Errorf("Devices = %d", s.Devices())
	}
	m, p, in := testModel()
	// Four runs should compile on all four devices (round robin), then
	// reuse caches.
	for i := 0; i < 8; i++ {
		if _, err := s.Run(m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	compiles := 0
	for _, d := range s.drivers {
		compiles += d.Compilations
	}
	if compiles != 4 {
		t.Errorf("total compilations = %d, want 4 (one per device)", compiles)
	}
}

func TestServerErrors(t *testing.T) {
	if _, err := NewServer(0, tpu.DefaultConfig()); err == nil {
		t.Error("zero devices accepted")
	}
}

func TestServerRunOn(t *testing.T) {
	s, err := NewServer(2, tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, p, in := testModel()
	// Pinned runs stay on one device: its driver compiles once, the other
	// driver never compiles at all.
	for i := 0; i < 3; i++ {
		if _, err := s.RunOn(1, m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	if c0, c1 := s.drivers[0].Compilations, s.drivers[1].Compilations; c0 != 0 || c1 != 1 {
		t.Errorf("compilations = %d/%d, want 0/1 (pinned to device 1)", c0, c1)
	}
	// Pinned and round-robin runs agree on the answer.
	rr, err := s.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := s.RunOn(1, m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rr.Output.Data {
		if rr.Output.Data[i] != pinned.Output.Data[i] {
			t.Fatal("pinned run diverged from round-robin run")
		}
	}
	for _, dev := range []int{-1, 2} {
		if _, err := s.RunOn(dev, m, p, in); err == nil {
			t.Errorf("device %d accepted", dev)
		}
	}
}

func TestDriverTinyBenchmarks(t *testing.T) {
	// All six benchmark structures run end to end through the driver.
	d, err := NewDriver(tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range models.Names() {
		m, err := models.Tiny(name)
		if err != nil {
			t.Fatal(err)
		}
		p := nn.InitRandom(m, 9, 0.25)
		var in *tensor.F32
		if m.Class == nn.CNN {
			c := m.Layers[0].Conv
			in = tensor.NewF32(m.Batch, c.H, c.W, c.Cin)
		} else {
			in = tensor.NewF32(m.Batch, m.InputElems())
		}
		in.FillRandom(10, 1)
		r, err := d.Run(m, p, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Output.Data) == 0 {
			t.Fatalf("%s: empty output", name)
		}
	}
}

// TestMultiModelResidency: two different models cached on one driver get
// disjoint Weight Memory regions, both keep answering correctly — the
// paper's "8 GiB supports many simultaneously active models".
func TestMultiModelResidency(t *testing.T) {
	d, err := NewDriver(tpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m1, p1, in1 := testModel()
	m2 := &nn.Model{
		Name: "second", Class: nn.MLP, Batch: 2, TimeSteps: 1,
		Layers: []nn.Layer{{Name: "fc", Kind: nn.FC, In: 8, Out: 8, Act: fixed.ReLU}},
	}
	p2 := nn.InitRandom(m2, 31, 0.2)
	in2 := tensor.NewF32(2, 8)
	in2.FillRandom(32, 1)

	r1a, err := d.Run(m1, p1, in1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(m2, p2, in2); err != nil {
		t.Fatal(err)
	}
	// The second model's weights live above the first model's region.
	e1 := d.cache[m1.Name].art.Program
	e2 := d.cache[m2.Name].art.Program
	if e2.WeightBase < e1.WeightBase+uint64(len(e1.WeightImage)) {
		t.Errorf("weight regions overlap: model2 at %#x, model1 ends at %#x",
			e2.WeightBase, e1.WeightBase+uint64(len(e1.WeightImage)))
	}
	// Running the first model again (cached) still gives the same answer.
	r1b, err := d.Run(m1, p1, in1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1a.Output.Data {
		if r1a.Output.Data[i] != r1b.Output.Data[i] {
			t.Fatal("first model's output changed after loading the second model")
		}
	}
	if !r1b.Cached {
		t.Error("first model lost its cache entry")
	}
}
