package perfmodel

import (
	"math"
	"testing"

	"tpusim/internal/compiler"
	"tpusim/internal/models"
	"tpusim/internal/tpu"
)

func TestProductionParams(t *testing.T) {
	p := Production()
	if p.ClockMHz != 700 || p.MemGBs != 34 || p.MatrixDim != 256 || p.AccCount != 4096 {
		t.Errorf("production params = %+v", p)
	}
}

func TestTPUPrimeRidge(t *testing.T) {
	p := TPUPrime()
	ridge := 92e12 / (2 * p.MemGBs * 1e9)
	if math.Abs(ridge-250) > 1 {
		t.Errorf("TPU' ridge = %v, want 250 (Section 7)", ridge)
	}
	if p.ClockMHz != 700 {
		t.Error("TPU' should keep the 700 MHz clock")
	}
}

// TestTable7ModelVsSimulator reproduces Table 7: the analytic model and the
// cycle simulator must agree within 10% for every app (the paper's average
// difference between model and hardware counters is 8%).
func TestTable7ModelVsSimulator(t *testing.T) {
	for _, b := range models.All() {
		art, err := compiler.CompileShape(b.Model, compiler.Options{Allocator: compiler.Reuse})
		if err != nil {
			t.Fatal(err)
		}
		dev, err := tpu.New(tpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c, err := dev.Run(art.Program, nil)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimate(b.Model, b.Model.Batch, Production())
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(est.Cycles-float64(c.Cycles)) / float64(c.Cycles)
		if diff > 0.10 {
			t.Errorf("%s: model %0.f vs simulator %d cycles: %.1f%% difference (Table 7 bound 10%%)",
				b.Model.Name, est.Cycles, c.Cycles, diff*100)
		}
	}
}

func TestEstimateErrors(t *testing.T) {
	b, _ := models.ByName("MLP0")
	if _, err := Estimate(b.Model, 8, Params{}); err == nil {
		t.Error("zero params accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, set := range []func(*Params){
			func(p *Params) { p.ClockMHz = v },
			func(p *Params) { p.MemGBs = v },
			func(p *Params) { p.PCIeGBs = v },
		} {
			p := Production()
			set(&p)
			if _, err := Estimate(b.Model, 8, p); err == nil {
				t.Errorf("params %+v accepted", p)
			}
		}
	}
}

func TestScale(t *testing.T) {
	p := Production()
	m, err := p.Scale(Memory, 4)
	if err != nil || m.MemGBs != 136 {
		t.Errorf("memory 4x = %+v, %v", m, err)
	}
	c, _ := p.Scale(Clock, 2)
	if c.ClockMHz != 1400 || c.AccCount != 4096 {
		t.Errorf("clock 2x = %+v", c)
	}
	ca, _ := p.Scale(ClockAcc, 2)
	if ca.ClockMHz != 1400 || ca.AccCount != 8192 {
		t.Errorf("clock+ 2x = %+v", ca)
	}
	mx, _ := p.Scale(Matrix, 2)
	if mx.MatrixDim != 512 || mx.AccCount != 4096 {
		t.Errorf("matrix 2x = %+v", mx)
	}
	mxa, _ := p.Scale(MatrixAcc, 2)
	if mxa.MatrixDim != 512 || mxa.AccCount != 16384 {
		t.Errorf("matrix+ 2x = %+v", mxa)
	}
	if _, err := p.Scale(Knob(99), 1); err == nil {
		t.Error("unknown knob accepted")
	}
	if _, err := p.Scale(Memory, 0); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestKnobStrings(t *testing.T) {
	want := map[Knob]string{Memory: "memory", Clock: "clock", ClockAcc: "clock+", Matrix: "matrix", MatrixAcc: "matrix+"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Knob(9).String() == "" {
		t.Error("unknown knob should render")
	}
	if len(Knobs()) != 5 {
		t.Error("Figure 11 has five curves")
	}
}

// TestFigure11MemoryDominates: "increasing memory bandwidth has the biggest
// impact: performance improves 3X on average when memory increases 4X".
func TestFigure11MemoryDominates(t *testing.T) {
	wm := func(k Knob, s float64) float64 {
		num, den := 0.0, 0.0
		for _, b := range models.All() {
			v, err := Sensitivity(b.Model, k, s)
			if err != nil {
				t.Fatal(err)
			}
			num += v * b.DeployShare
			den += b.DeployShare
		}
		return num / den
	}
	mem4 := wm(Memory, 4)
	if mem4 < 2.5 || mem4 > 3.6 {
		t.Errorf("memory 4x weighted mean = %.2f, paper says ~3X", mem4)
	}
	// "clock rate has little benefit on average with or without more
	// accumulators".
	for _, k := range []Knob{Clock, ClockAcc} {
		c4 := wm(k, 4)
		if c4 > 1.5 {
			t.Errorf("%v 4x weighted mean = %.2f, paper says little benefit", k, c4)
		}
	}
	// "the average performance slightly degrades when the matrix unit
	// expands from 256x256 to 512x512 for all apps, whether or not they
	// get more accumulators".
	for _, k := range []Knob{Matrix, MatrixAcc} {
		m2 := wm(k, 2)
		if m2 >= 1.0 {
			t.Errorf("%v 2x weighted mean = %.2f, paper says it degrades", k, m2)
		}
	}
	// And every knob at scale 1 must be exactly 1.
	for _, k := range Knobs() {
		if v := wm(k, 1); math.Abs(v-1) > 1e-9 {
			t.Errorf("%v at 1x = %v, want 1", k, v)
		}
	}
}

// TestFigure11PerClassBehaviour: "MLPs and LSTMs improve 3X with 4X memory
// bandwidth, but get nothing from a higher clock. For CNNs it's vice
// versa".
func TestFigure11PerClassBehaviour(t *testing.T) {
	get := func(name string, k Knob, s float64) float64 {
		b, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		v, err := Sensitivity(b.Model, k, s)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, name := range []string{"MLP0", "LSTM0"} {
		if v := get(name, Memory, 4); v < 2.5 {
			t.Errorf("%s memory 4x = %.2f, want ~3x+", name, v)
		}
		if v := get(name, Clock, 4); v > 1.3 {
			t.Errorf("%s clock 4x = %.2f, want ~nothing", name, v)
		}
	}
	if v := get("CNN0", Clock, 4); v < 1.5 {
		t.Errorf("CNN0 clock 4x = %.2f, paper says CNNs gain ~2x", v)
	}
	if v := get("CNN0", Memory, 4); v > 1.5 {
		t.Errorf("CNN0 memory 4x = %.2f, paper says CNNs gain little", v)
	}
}

// TestLSTM1MatrixFragmentation: Section 7's 600x600 example — a 512x512
// matrix unit must not speed LSTM1 up (two-dimensional fragmentation).
func TestLSTM1MatrixFragmentation(t *testing.T) {
	b, _ := models.ByName("LSTM1")
	v, err := Sensitivity(b.Model, Matrix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v >= 1.0 {
		t.Errorf("LSTM1 with 512x512 matrix = %.2f, paper's tiling argument says < 1", v)
	}
}

// TestTPUPrimeSpeedup: "If we left the clock at 700 MHz but used GDDR5 for
// Weight Memory, the geometric mean increase jumps to 2.6 and the weighted
// mean to 3.9."
func TestTPUPrimeSpeedup(t *testing.T) {
	logSum, wNum, wDen := 0.0, 0.0, 0.0
	for _, b := range models.All() {
		base, err := Estimate(b.Model, b.Model.Batch, Production())
		if err != nil {
			t.Fatal(err)
		}
		prime, err := Estimate(b.Model, b.Model.Batch, TPUPrime())
		if err != nil {
			t.Fatal(err)
		}
		sp := base.Seconds(Production()) / prime.Seconds(TPUPrime())
		if sp < 1 {
			t.Errorf("%s: TPU' slower than TPU (%.2f)", b.Model.Name, sp)
		}
		logSum += math.Log(sp)
		wNum += sp * b.DeployShare
		wDen += b.DeployShare
	}
	gm := math.Exp(logSum / 6)
	wm := wNum / wDen
	if math.Abs(gm-2.6) > 0.5 {
		t.Errorf("TPU' GM speedup = %.2f, paper says 2.6", gm)
	}
	if math.Abs(wm-3.9) > 0.6 {
		t.Errorf("TPU' WM speedup = %.2f, paper says 3.9", wm)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Cycles: 700e6, MACs: 1e12}
	if r.Seconds(Production()) != 1 {
		t.Error("Seconds wrong")
	}
	if r.TeraOps(Production()) != 2 {
		t.Error("TeraOps wrong")
	}
	var zero Result
	if zero.TeraOps(Production()) != 0 {
		t.Error("zero TeraOps should be 0")
	}
}

func TestSensitivityMonotoneInMemoryForMemoryBound(t *testing.T) {
	b, _ := models.ByName("MLP0")
	prev := 0.0
	for _, s := range []float64{0.25, 0.5, 1, 2, 4} {
		v, err := Sensitivity(b.Model, Memory, s)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("MLP0 memory sensitivity not monotone at %vx", s)
		}
		prev = v
	}
}
