package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"tpusim/internal/compiler"
	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/systolic"
	"tpusim/internal/tensor"
	"tpusim/internal/tpu"
)

// inferBatch is offline batch inference, the use the TPU's designers
// expected: full batches of a wide MLP through the functional datapath on
// P devices. The int8 systolic kernel does most of the work and the
// serving layer none.
var inferBatch = workload{
	name: "infer_batch",
	why:  "offline full-batch inference on P devices: the int8 systolic kernel does most of the work, serve and the simulators none",
	prepare: func(o options) (*plan, error) {
		w, err := newWideInputs(o)
		if err != nil {
			return nil, err
		}
		return &plan{rep: w.rep, layers: w.layers}, nil
	},
}

// newWideInputs generates the model, its parameters, four input batches and
// the request order from the seed, and the reference output of input 0.
func newWideInputs(o options) (*wideInputs, error) {
	w := &wideInputs{m: wideModel(1024, 4, 64), batches: 40}
	if o.smoke {
		w.m, w.batches = wideModel(256, 2, 8), 4
	}
	rng := rand.New(rand.NewSource(o.seed))
	w.params = nn.InitRandom(w.m, rng.Int63(), 0.05)
	for i := 0; i < 4; i++ {
		in := tensor.NewF32(w.m.Batch, w.m.InputElems())
		in.FillRandom(rng.Int63(), 1)
		w.inputs = append(w.inputs, in)
	}
	// RunAll stripes request i onto device i%P, so the first P requests
	// carry input 0: every device's first batch has a known reference.
	for i := 0; i < w.batches; i++ {
		pick := 0
		if i >= parallelism() {
			pick = rng.Intn(len(w.inputs))
		}
		w.reqs = append(w.reqs, runtime.Request{Model: w.m, Params: w.params, Input: w.inputs[pick]})
	}
	var err error
	w.want, err = reference(w.m, w.params, w.inputs[0], w.inputs[0])
	return w, err
}

// wideModel is layers FC dim x dim ReLU layers.
func wideModel(dim, layers, batch int) *nn.Model {
	m := &nn.Model{Name: "MLP-wide", Class: nn.MLP, Batch: batch, TimeSteps: 1}
	for i := 0; i < layers; i++ {
		m.Layers = append(m.Layers, nn.Layer{Name: fmt.Sprintf("fc%d", i), Kind: nn.FC, In: dim, Out: dim, Act: fixed.ReLU})
	}
	return m
}

// reference is the nn package's int8 reference inference, independent of
// the compiler and the device: quantize on the calibration batch, run the
// quantized layers, dequantize.
func reference(m *nn.Model, p *nn.Params, calib, in *tensor.F32) (*tensor.F32, error) {
	qm, err := nn.QuantizeModel(m, p, calib)
	if err != nil {
		return nil, err
	}
	out, err := qm.Forward(qm.QuantizeInput(in))
	if err != nil {
		return nil, err
	}
	return qm.DequantizeOutput(out), nil
}

// sameOutput compares an output with its reference element for element.
func sameOutput(got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("output has %d elements, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

type wideInputs struct {
	m       *nn.Model
	params  *nn.Params
	inputs  []*tensor.F32
	reqs    []runtime.Request
	batches int
	want    *tensor.F32 // reference output for inputs[0]
}

func deviceConfig() tpu.Config {
	cfg := tpu.DefaultConfig()
	cfg.Parallelism = 1 // one OS thread's worth of kernel per device
	return cfg
}

func (w *wideInputs) rep(r *rep) {
	srv, err := runtime.NewServer(parallelism(), deviceConfig())
	if !r.check("NewServer", err) {
		return
	}
	defer srv.Close()
	// Warm-up, one batch per device: quantize, compile, weight load.
	for d := 0; d < srv.Devices(); d++ {
		res, err := srv.RunOn(d, w.m, w.params, w.inputs[0])
		if r.check(fmt.Sprintf("warm-up on device %d", d), err) {
			r.check(fmt.Sprintf("warm-up on device %d", d), sameOutput(res.Output.Data, w.want.Data))
		}
	}

	r.begin()
	done := r.tr.push("runtime", "RunAll")
	results, err := srv.RunAll(w.reqs)
	done()
	r.end(int64(w.batches * w.m.Batch))

	if !r.check("RunAll", err) {
		return
	}
	for d := 0; d < srv.Devices(); d++ {
		r.check(fmt.Sprintf("first batch on device %d", d), sameOutput(results[d].Output.Data, w.want.Data))
	}
	h := sha256.New()
	for _, res := range results {
		fmt.Fprint(h, res.Output.Data)
	}
	r.stat("outputs", fmt.Sprintf("%x", h.Sum(nil)))
	r.stat("device_seconds", results[0].DeviceSeconds)
	r.stat("cycles", results[0].Counters.Cycles)
}

// layers probes the runtime and the kernel alone on the workload's shapes:
// one RunOn of a full batch, and the batch's tile multiplies.
func (w *wideInputs) layers(l *layerRun) {
	t := time.Now()
	qm, err := nn.QuantizeModel(w.m, w.params, w.inputs[0])
	if !l.traced.check("probe QuantizeModel", err) {
		return
	}
	_, err = compiler.Compile(qm, compiler.Options{Allocator: compiler.Reuse})
	l.traced.check("probe Compile", err)
	l.set("compiler.quantize_compile_ms.wide", millis(time.Since(t)))

	srv, err := runtime.NewServer(1, deviceConfig())
	if !l.traced.check("probe NewServer", err) {
		return
	}
	defer srv.Close()
	var res *runtime.InferenceResult
	runOn := func() {
		res, err = srv.RunOn(0, w.m, w.params, w.inputs[0])
		l.traced.check("probe RunOn", err)
	}
	runOn() // compiles
	if res == nil {
		return
	}
	runMillis := probeNanos(5, 1, runOn) / 1e6
	l.set("runtime.run_on_ms.wide", runMillis)
	l.set("runtime.device_seconds_per_batch", res.DeviceSeconds)

	nsPerMAC, packMicros := probeKernel(w.m.Batch)
	l.set("systolic.ns_per_mac", nsPerMAC)
	l.set("systolic.tile_pack_us", packMicros)
	kernelMillis, err := batchKernelMillis(qm, w.inputs[0])
	if l.traced.check("probe kernel", err) {
		l.set("systolic.kernel_share.wide", kernelMillis/runMillis*100)
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// randomWeights is one tile of random weights in Weight Memory layout. The
// kernel's time does not depend on the weights' values.
func randomWeights() []int8 {
	rng := rand.New(rand.NewSource(1))
	weights := make([]int8, isa.WeightTileBytes)
	for i := range weights {
		weights[i] = int8(rng.Intn(256) - 128)
	}
	return weights
}

// loadTile builds a tile from weights and makes it a new array's active tile.
func loadTile(weights []int8) *systolic.Array {
	tile, err := systolic.TileFromBytes(weights)
	if err != nil {
		panic(err) // weights has the tile size by construction
	}
	array := systolic.New()
	_ = array.LoadShadow(tile) // a new array's shadow buffer is free
	_ = array.Commit()
	return array
}

// probeKernel times the int8 kernel alone: systolic.MultiplyInto on one
// random 256x256 tile and dense random activations at the given batch. It
// returns nanoseconds per MAC in steady state, and the microseconds that
// TileFromBytes plus the first multiply, which packs the tile, take.
func probeKernel(batch int) (nsPerMAC, packMicros float64) {
	rng := rand.New(rand.NewSource(1))
	weights := randomWeights()
	in := make([]int8, batch*isa.MatrixDim)
	for i := range in {
		in[i] = int8(rng.Intn(255) - 127) // dense: the kernel skips zero activations
		if in[i] == 0 {
			in[i] = 1
		}
	}
	out := make([][isa.MatrixDim]int32, batch)
	var array *systolic.Array
	packMicros = probeNanos(9, 1, func() {
		array = loadTile(weights)
		_ = array.MultiplyInto(in[:isa.MatrixDim], out[:1], 1) // one row: packing dominates
	}) / 1e3
	const rounds = 50
	tileNanos := probeNanos(9, rounds, func() {
		for i := 0; i < rounds; i++ {
			_ = array.MultiplyInto(in, out, 1) // shapes match by construction
		}
	})
	return tileNanos / float64(batch*isa.MatrixDim*isa.MatrixDim), packMicros
}

// batchKernelMillis is the time the int8 kernel takes for one batch of an
// FC model: every tile multiply of every layer, on the activations the nn
// reference computes for that layer (the kernel skips zero activations, so
// ReLU outputs multiply faster than dense inputs).
func batchKernelMillis(qm *nn.QuantizedModel, in *tensor.F32) (float64, error) {
	array := loadTile(randomWeights())
	x := qm.QuantizeInput(in)
	batch := qm.Model.Batch
	out := make([][isa.MatrixDim]int32, batch)
	block := make([]int8, batch*isa.MatrixDim)
	total := 0.0
	for i, layer := range qm.Model.Layers {
		for rt := 0; rt < ceilDiv(layer.In, isa.MatrixDim); rt++ {
			clear(block)
			for b := 0; b < batch; b++ {
				row := x.Data[b*layer.In:][:layer.In]
				copy(block[b*isa.MatrixDim:][:isa.MatrixDim], row[rt*isa.MatrixDim:])
			}
			perTile := probeNanos(9, 1, func() { _ = array.MultiplyInto(block, out, 1) }) // shapes match by construction
			total += perTile * float64(ceilDiv(layer.Out, isa.MatrixDim))
		}
		var err error
		if x, err = qm.ForwardLayer(i, x); err != nil {
			return 0, err
		}
	}
	return total / 1e6, nil
}
