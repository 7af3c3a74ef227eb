package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tpusim/internal/latency"
	"tpusim/internal/nn"
	"tpusim/internal/runtime"
	"tpusim/internal/tensor"
)

// Backend executes one assembled batch for a model. inputs are per-request
// tensors; the backend returns exactly one output per request.
type Backend interface {
	Run(model string, inputs []*tensor.F32) ([]*tensor.F32, error)
}

// ContextBackend is a Backend that can propagate a request-scoped trace
// context into its execution. The server's dispatcher prefers RunCtx when
// the backend implements it, so backend-side telemetry (the runtime
// driver's compile/device-pick/run spans and the device's cycle timeline)
// lands in the same trace as the serving-side spans.
type ContextBackend interface {
	Backend
	RunCtx(ctx context.Context, model string, inputs []*tensor.F32) ([]*tensor.F32, error)
}

// SimBackend is a service-model-driven backend for tests, examples, and
// load demos: it "executes" a batch by sleeping the modeled batch time
// scaled by TimeScale and echoes the inputs back as outputs.
type SimBackend struct {
	mu sync.Mutex
	// Models maps a model name to its latency model.
	models map[string]latency.ServiceModel
	// TimeScale compresses simulated service time into wall time (0.01
	// runs a 7 ms batch in 70 us). Zero means no sleeping at all.
	TimeScale float64
}

// NewSimBackend creates an empty simulated backend.
func NewSimBackend(timeScale float64) *SimBackend {
	return &SimBackend{
		models:    map[string]latency.ServiceModel{},
		TimeScale: timeScale,
	}
}

// AddModel registers a model's latency model.
func (b *SimBackend) AddModel(name string, sm latency.ServiceModel) {
	b.mu.Lock()
	b.models[name] = sm
	b.mu.Unlock()
}

// Run implements Backend.
func (b *SimBackend) Run(model string, inputs []*tensor.F32) ([]*tensor.F32, error) {
	b.mu.Lock()
	sm, ok := b.models[model]
	scale := b.TimeScale
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: sim backend has no model %s", model)
	}
	svc, err := sm.BatchSeconds(len(inputs))
	if err != nil {
		return nil, err
	}
	if scale > 0 {
		time.Sleep(time.Duration(svc * scale * float64(time.Second)))
	}
	return inputs, nil
}

// servedModel is one model registered with the runtime backend.
type servedModel struct {
	m      *nn.Model
	params *nn.Params
	dev    int

	// batchMu serializes batch assembly for this model and guards in, the
	// reused full-batch input tensor. The serving layer already serializes
	// per-model batches (one dispatcher per lane), and the runtime driver
	// serializes device runs per model, so holding it across the whole
	// stack-run-split costs no parallelism that existed before — and buys a
	// steady state where the largest per-dispatch allocation (batch x
	// input-row float32) happens once per model instead of once per batch.
	batchMu sync.Mutex
	in      *tensor.F32
}

// RuntimeBackend executes batches for real on a runtime.Server: it stacks
// the per-request rows into the model's compiled batch (padding short
// batches with zero rows, as a real deployment pads the matrix unit), runs
// the batch on the model's pinned TPU via the driver stack, and splits the
// output rows back out per request. Pinning each model to one device keeps
// the driver's compiled-program cache hot (Section 2's "the second and
// following evaluations run at full speed").
type RuntimeBackend struct {
	srv *runtime.Server

	mu     sync.Mutex
	models map[string]*servedModel
	nextic int
}

// NewRuntimeBackend wraps a runtime server.
func NewRuntimeBackend(srv *runtime.Server) *RuntimeBackend {
	return &RuntimeBackend{srv: srv, models: map[string]*servedModel{}}
}

// AddModel registers a model and pins it to a device round robin.
func (b *RuntimeBackend) AddModel(m *nn.Model, params *nn.Params) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.models[m.Name]; ok {
		return fmt.Errorf("serve: model %s already registered with runtime backend", m.Name)
	}
	b.models[m.Name] = &servedModel{m: m, params: params, dev: b.nextic % b.srv.Devices()}
	b.nextic++
	return nil
}

// Run implements Backend.
func (b *RuntimeBackend) Run(model string, inputs []*tensor.F32) ([]*tensor.F32, error) {
	return b.RunCtx(context.Background(), model, inputs)
}

// RunCtx implements ContextBackend: the trace context flows through to the
// runtime server, so the pinned device's run (and, when device tracing is
// enabled, its cycle-level unit occupancy) joins the request's trace.
func (b *RuntimeBackend) RunCtx(ctx context.Context, model string, inputs []*tensor.F32) ([]*tensor.F32, error) {
	b.mu.Lock()
	sm, ok := b.models[model]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: runtime backend has no model %s", model)
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("serve: empty batch for %s", model)
	}
	if len(inputs) > sm.m.Batch {
		return nil, fmt.Errorf("serve: batch %d exceeds %s's compiled batch %d",
			len(inputs), model, sm.m.Batch)
	}
	rowIn := sm.m.InputElems()
	sm.batchMu.Lock()
	defer sm.batchMu.Unlock()
	if sm.in == nil {
		sm.in = tensor.NewF32(sm.m.BatchInputShape()...)
	}
	in := sm.in
	for i, t := range inputs {
		if len(t.Data) != rowIn {
			return nil, fmt.Errorf("serve: request %d has %d input elems, %s wants %d",
				i, len(t.Data), model, rowIn)
		}
		copy(in.Data[i*rowIn:(i+1)*rowIn], t.Data)
	}
	// A fresh tensor arrived zeroed; the reused one still holds the last
	// batch's rows, so short batches must re-zero their padding rows (a
	// real deployment pads the matrix unit with zeros, and the functional
	// datapath's outputs for real rows must not see stale neighbors).
	clear(in.Data[len(inputs)*rowIn:])
	res, err := b.srv.RunOnCtx(ctx, sm.dev, sm.m, sm.params, in)
	if err != nil {
		return nil, err
	}
	out := res.Output
	if len(out.Shape) == 0 || out.Shape[0] != sm.m.Batch {
		return nil, fmt.Errorf("serve: %s output shape %v, want leading batch %d",
			model, out.Shape, sm.m.Batch)
	}
	rowOut := len(out.Data) / sm.m.Batch
	outs := make([]*tensor.F32, len(inputs))
	for i := range inputs {
		o := tensor.NewF32(1, rowOut)
		copy(o.Data, out.Data[i*rowOut:(i+1)*rowOut])
		outs[i] = o
	}
	return outs, nil
}
