package runtime

import (
	"math"
	"slices"
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

// newTestServer builds a fault-free n-device server closed with the test.
func newTestServer(t *testing.T, n int, cfg tpu.Config) *Server {
	t.Helper()
	s, err := NewServer(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// compilations is the server's compile count, summed over the devices
// whose evaluations ran them.
func compilations(s *Server) int {
	n := 0
	for _, st := range s.Stats() {
		n += st.Compilations
	}
	return n
}

// equalOutputs compares two output tensors exactly.
func equalOutputs(a, b *tensor.F32) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Data, b.Data)
}

func TestDriverCompileOnceRunMany(t *testing.T) {
	s := newTestServer(t, 1, tpu.DefaultConfig())
	m, p, in := testModel()
	r1, err := s.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first run should compile")
	}
	r2, err := s.Run(m, p, in)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second run should hit the program cache")
	}
	if n := compilations(s); n != 1 {
		t.Errorf("compilations = %d, want 1", n)
	}
	// Identical inputs give identical outputs (deterministic device).
	if !equalOutputs(r1.Output, r2.Output) {
		t.Fatal("cached run diverged from first run")
	}
	if r1.DeviceSeconds <= 0 {
		t.Error("no device time recorded")
	}
}

func TestDriverOutputMatchesReference(t *testing.T) {
	s := newTestServer(t, 1, tpu.DefaultConfig())
	m, p, in := testModel()
	r, err := s.Run(m, p, in)
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

func TestDriverRejectsInvalidModel(t *testing.T) {
	s := newTestServer(t, 1, tpu.DefaultConfig())
	bad := &nn.Model{Name: "bad"}
	if _, err := s.Run(bad, &nn.Params{}, tensor.NewF32(1, 1)); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestNewServerBadConfig(t *testing.T) {
	if _, err := NewServer(1, tpu.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestServerRoundRobin: round-robin runs visit every device, and the server
// compiles the model once for all four.
func TestServerRoundRobin(t *testing.T) {
	s := newTestServer(t, 4, tpu.DefaultConfig())
	if s.Devices() != 4 {
		t.Errorf("Devices = %d", s.Devices())
	}
	m, p, in := testModel()
	for i := 0; i < 8; i++ {
		if _, err := s.Run(m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	if n := compilations(s); n != 1 {
		t.Errorf("total compilations = %d, want 1 (one per server)", n)
	}
	for i, st := range s.Stats() {
		if loaded := modelsLoaded(s.drivers[i]); st.Runs != 2 || loaded != 1 {
			t.Errorf("%s: %d runs, %d models loaded, want 2 and 1", st.Device, st.Runs, loaded)
		}
	}
}

// modelsLoaded returns how many models are loaded on d.
func modelsLoaded(d *Driver) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.slots)
}

func TestServerErrors(t *testing.T) {
	if _, err := NewServer(0, tpu.DefaultConfig()); err == nil {
		t.Error("zero devices accepted")
	}
}

func TestServerRunOn(t *testing.T) {
	s := newTestServer(t, 2, tpu.DefaultConfig())
	m, p, in := testModel()
	// Pinned runs stay on one device: its evaluation compiles once, the
	// other device never loads the model at all.
	for i := 0; i < 3; i++ {
		if _, err := s.RunOn(1, m, p, in); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if loaded := modelsLoaded(s.drivers[0]); st[0].Compilations != 0 || st[1].Compilations != 1 || loaded != 0 {
		t.Errorf("compilations = %d/%d, device 0 holds %d models, want 0/1 and 0 (pinned to device 1)",
			st[0].Compilations, st[1].Compilations, loaded)
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
	if !equalOutputs(rr.Output, pinned.Output) {
		t.Fatal("pinned run diverged from round-robin run")
	}
	for _, dev := range []int{-1, 2} {
		if _, err := s.RunOn(dev, m, p, in); err == nil {
			t.Errorf("device %d accepted", dev)
		}
	}
}

func TestDriverTinyBenchmarks(t *testing.T) {
	// All six benchmark structures run end to end through the driver.
	s := newTestServer(t, 1, tpu.DefaultConfig())
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
		r, err := s.Run(m, p, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Output.Data) == 0 {
			t.Fatalf("%s: empty output", name)
		}
	}
}

// TestMultiModelResidency: two different models compiled on one server get
// disjoint Weight Memory regions, both keep answering correctly — the
// paper's "8 GiB supports many simultaneously active models".
func TestMultiModelResidency(t *testing.T) {
	s := newTestServer(t, 1, tpu.DefaultConfig())
	m1, p1, in1 := testModel()
	m2 := &nn.Model{
		Name: "second", Class: nn.MLP, Batch: 2, TimeSteps: 1,
		Layers: []nn.Layer{{Name: "fc", Kind: nn.FC, In: 8, Out: 8, Act: fixed.ReLU}},
	}
	p2 := nn.InitRandom(m2, 31, 0.2)
	in2 := tensor.NewF32(2, 8)
	in2.FillRandom(32, 1)

	r1a, err := s.Run(m1, p1, in1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(m2, p2, in2); err != nil {
		t.Fatal(err)
	}
	// The second model's weights live above the first model's region.
	e1 := s.programs[m1.Name].art.Program
	e2 := s.programs[m2.Name].art.Program
	if e2.WeightBase < e1.WeightBase+uint64(len(e1.WeightImage)) {
		t.Errorf("weight regions overlap: model2 at %#x, model1 ends at %#x",
			e2.WeightBase, e1.WeightBase+uint64(len(e1.WeightImage)))
	}
	// Running the first model again (cached) still gives the same answer.
	r1b, err := s.Run(m1, p1, in1)
	if err != nil {
		t.Fatal(err)
	}
	if !equalOutputs(r1a.Output, r1b.Output) {
		t.Fatal("first model's output changed after loading the second model")
	}
	if !r1b.Cached {
		t.Error("first model lost its cache entry")
	}
}
