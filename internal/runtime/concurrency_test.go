package runtime

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tpusim/internal/fixed"
	"tpusim/internal/nn"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// TestDriverRunConcurrentColdCache hammers one model from eight goroutines
// across two devices against a cold cache: the server must compile exactly
// once, each device load it once, every caller see the same output, and no
// Weight Memory leak (run with -race to exercise the synchronization).
func TestDriverRunConcurrentColdCache(t *testing.T) {
	s := newTestServer(t, 2, tpu.DefaultConfig())
	m, p, in := testModel()
	const goroutines = 8
	outs := make([]*tensor.F32, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := s.RunOn(g%2, m, p, in)
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = r.Output
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if n := compilations(s); n != 1 {
		t.Errorf("compilations = %d, want 1 (check-then-compile race)", n)
	}
	for g := 1; g < goroutines; g++ {
		if !equalOutputs(outs[g], outs[0]) {
			t.Fatalf("goroutine %d's output differs from goroutine 0's", g)
		}
	}
	for _, d := range s.drivers {
		if n := len(d.readySlots()); n != 1 {
			t.Errorf("%s holds %d loaded models, want 1", d.label, n)
		}
	}
	pr := s.programs[m.Name]
	if pr == nil {
		t.Fatal("model missing from the server's cache after concurrent runs")
	}
	if reg := pr.weightRegion(); s.weightNext != reg.base+reg.size {
		t.Errorf("weightNext = %#x, want %#x (weight region leaked)",
			s.weightNext, reg.base+reg.size)
	}
}

// TestDriverConcurrentDistinctModels compiles several distinct models at
// once and checks that their Weight Memory regions never overlap and that
// no space leaks between or after the compiles.
func TestDriverConcurrentDistinctModels(t *testing.T) {
	s := newTestServer(t, 1, tpu.DefaultConfig())
	const nModels = 6
	type job struct {
		m  *nn.Model
		p  *nn.Params
		in *tensor.F32
	}
	jobs := make([]job, nModels)
	for i := range jobs {
		m := &nn.Model{
			Name: fmt.Sprintf("concurrent-%d", i), Class: nn.MLP, Batch: 2, TimeSteps: 1,
			Layers: []nn.Layer{
				{Name: "fc0", Kind: nn.FC, In: 8 + 4*i, Out: 8, Act: fixed.ReLU},
			},
		}
		p := nn.InitRandom(m, int64(10+i), 0.25)
		in := tensor.NewF32(2, 8+4*i)
		in.FillRandom(int64(20+i), 1)
		jobs[i] = job{m, p, in}
	}
	// Two rounds: the second hits the cache and must not reserve again.
	for round := 0; round < 2; round++ {
		errs := make([]error, nModels)
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func(i int, j job) {
				defer wg.Done()
				_, errs[i] = s.Run(j.m, j.p, j.in)
			}(i, j)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d model %d: %v", round, i, err)
			}
		}
	}
	if n := compilations(s); n != nModels {
		t.Errorf("compilations = %d, want %d", n, nModels)
	}
	// Regions must be pairwise disjoint and sum to weightNext (no holes
	// were freed, so nothing may leak).
	regs := make([]region, 0, nModels)
	var total uint64
	for _, j := range jobs {
		pr := s.programs[j.m.Name]
		if pr == nil {
			t.Fatalf("%s missing from cache", j.m.Name)
		}
		regs = append(regs, pr.weightRegion())
		total += pr.weightRegion().size
	}
	sort.Slice(regs, func(a, b int) bool { return regs[a].base < regs[b].base })
	for i := 1; i < len(regs); i++ {
		if regs[i-1].base+regs[i-1].size > regs[i].base {
			t.Errorf("weight regions overlap: [%#x,+%d) and [%#x,+%d)",
				regs[i-1].base, regs[i-1].size, regs[i].base, regs[i].size)
		}
	}
	if s.weightNext != total {
		t.Errorf("weightNext = %#x, want %#x (regions leaked or overlapped)", s.weightNext, total)
	}
}
