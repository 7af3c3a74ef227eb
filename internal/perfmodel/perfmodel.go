// Package perfmodel is the analytic TPU performance model of Section 7:
// "Like an FPU, the TPU coprocessor has a relatively easy microarchitecture
// to evaluate, so we created a performance model for our six applications."
// The paper validates it against hardware counters (Table 7, average 8%
// difference) and then sweeps memory bandwidth, clock rate, accumulator
// count, and matrix unit size (Figure 11) — including the hypothetical TPU'
// with GDDR5 weight memory.
//
// The model mirrors the cycle simulator's microarchitectural events in
// closed form: per-layer weight-tile traffic (including the padding of
// edge tiles — the two-dimensional fragmentation that makes a bigger matrix
// unit slower), pipelined compute, tile shifts, activation drains, and the
// per-layer synchronization delay slot.
package perfmodel

import (
	"fmt"
	"math"

	"tpusim/internal/nn"
)

// Params are the TPU design parameters the model evaluates.
type Params struct {
	ClockMHz float64
	MemGBs   float64
	PCIeGBs  float64
	// MatrixDim is the matrix unit edge (256 in production).
	MatrixDim int
	// AccCount is the number of MatrixDim-wide accumulator registers
	// (4096 in production).
	AccCount int
	// ActivationZeroFrac enables the zero-skipping extension the paper
	// defers to future work (Section 9 discusses Cnvlutin's observation
	// that ~44% of activation inputs are zero, "presumably in part due to
	// ReLU"): the matrix unit skips zero activation rows, scaling compute
	// cycles by (1 - frac). Zero (the default) models the shipped TPU,
	// which has no sparsity support ("Sparsity will have high priority in
	// future designs").
	ActivationZeroFrac float64
}

// Production returns the deployed TPU's parameters.
func Production() Params {
	return Params{ClockMHz: 700, MemGBs: 34, PCIeGBs: 14, MatrixDim: 256, AccCount: 4096}
}

// TPUPrime returns Section 7's improved design: GDDR5 weight memory moving
// the ridge point from 1350 to 250 (~184 GB/s); clock unchanged, since
// "doing both raises the geometric mean but not the weighted mean, so TPU'
// just has faster memory".
func TPUPrime() Params {
	p := Production()
	p.MemGBs = 92e12 / (2 * 250) / 1e9
	return p
}

// Knob names one scaled parameter for the Figure 11 sweep.
type Knob int

const (
	// Memory scales weight-memory bandwidth.
	Memory Knob = iota
	// Clock scales clock rate only.
	Clock
	// ClockAcc scales clock rate and accumulator count together (Figure
	// 11 "clock+").
	ClockAcc
	// Matrix scales the matrix unit dimension only.
	Matrix
	// MatrixAcc scales the matrix dimension and grows accumulators with
	// the square of the rise (Figure 11 "matrix+").
	MatrixAcc
)

// String names the knob as Figure 11 does.
func (k Knob) String() string {
	switch k {
	case Memory:
		return "memory"
	case Clock:
		return "clock"
	case ClockAcc:
		return "clock+"
	case Matrix:
		return "matrix"
	case MatrixAcc:
		return "matrix+"
	default:
		return fmt.Sprintf("Knob(%d)", int(k))
	}
}

// Knobs returns all Figure 11 knobs in display order.
func Knobs() []Knob { return []Knob{Memory, ClockAcc, Clock, MatrixAcc, Matrix} }

// Scale returns parameters with one knob scaled by s (0.25x to 4x in the
// paper's sweep).
func (p Params) Scale(k Knob, s float64) (Params, error) {
	if s <= 0 {
		return Params{}, fmt.Errorf("perfmodel: non-positive scale %v", s)
	}
	q := p
	switch k {
	case Memory:
		q.MemGBs *= s
	case Clock:
		q.ClockMHz *= s
	case ClockAcc:
		q.ClockMHz *= s
		q.AccCount = int(float64(p.AccCount) * s)
	case Matrix:
		q.MatrixDim = int(float64(p.MatrixDim) * s)
	case MatrixAcc:
		q.MatrixDim = int(float64(p.MatrixDim) * s)
		q.AccCount = int(float64(p.AccCount) * s * s)
	default:
		return Params{}, fmt.Errorf("perfmodel: unknown knob %d", int(k))
	}
	if q.MatrixDim < 1 || q.AccCount < 2 {
		return Params{}, fmt.Errorf("perfmodel: degenerate scaled design %+v", q)
	}
	return q, nil
}

// Result is the model's per-run estimate.
type Result struct {
	// Cycles is the estimated total device cycles per batch.
	Cycles float64
	// MACs is useful multiply-accumulates per batch.
	MACs float64
}

// Seconds converts to wall time.
func (r Result) Seconds(p Params) float64 {
	return r.Cycles / (p.ClockMHz * 1e6)
}

// TeraOps returns delivered TeraOps/s (2 ops per MAC).
func (r Result) TeraOps(p Params) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 2 * r.MACs / r.Seconds(p) / 1e12
}

// Estimate models one batch of the model on a TPU with parameters p.
func Estimate(m *nn.Model, batch int, p Params) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if batch <= 0 {
		batch = m.Batch
	}
	if p.MatrixDim <= 0 || p.AccCount < 2 || !positiveFinite(p.ClockMHz) || !positiveFinite(p.MemGBs) || !positiveFinite(p.PCIeGBs) {
		return Result{}, fmt.Errorf("perfmodel: invalid params %+v", p)
	}
	if p.ActivationZeroFrac < 0 || p.ActivationZeroFrac >= 1 {
		return Result{}, fmt.Errorf("perfmodel: activation zero fraction %v outside [0, 1)", p.ActivationZeroFrac)
	}
	dim := float64(p.MatrixDim)
	memBPC := p.MemGBs * 1e9 / (p.ClockMHz * 1e6)
	pcieBPC := p.PCIeGBs * 1e9 / (p.ClockMHz * 1e6)
	fill := 2*dim - 1

	var r Result
	// Input DMA (and the sync exposing it).
	inBytes := float64(batch * align256(m.InputElems()))
	r.Cycles += inBytes / pcieBPC

	var lastEdgeBytes float64 = inBytes
	for step := 0; step < m.TimeSteps; step++ {
		for _, l := range m.Layers {
			switch l.Kind {
			case nn.FC, nn.Conv:
				lc := matrixLayerCycles(l, batch, p, memBPC)
				r.Cycles += lc.total
				r.MACs += lc.macs
				r.Cycles += fill // per-layer delay slot
				lastEdgeBytes = lc.outBytes
			case nn.Vector:
				// The activation unit processes 256 bytes per cycle; a
				// standalone vector layer is fully exposed because the
				// next matrix layer synchronizes on it.
				r.Cycles += float64(batch*align256(l.Width)) / 256
				lastEdgeBytes = float64(batch * align256(l.Width))
			case nn.Pool:
				r.Cycles += lastEdgeBytes / 256
				lastEdgeBytes /= float64(l.PoolWindow * l.PoolWindow)
			}
		}
	}
	// Output DMA.
	r.Cycles += lastEdgeBytes / pcieBPC
	return r, nil
}

type layerCycles struct {
	total, macs, outBytes float64
}

// matrixLayerCycles estimates one FC or convolution layer.
func matrixLayerCycles(l nn.Layer, batch int, p Params, memBPC float64) layerCycles {
	dim := p.MatrixDim
	var rows, cols, totalRows int
	var macs float64
	switch l.Kind {
	case nn.FC:
		rows, cols = l.In, l.Out
		totalRows = batch
		macs = float64(l.In) * float64(l.Out) * float64(batch)
	case nn.Conv:
		cs := l.Conv
		rows, cols = cs.K*cs.K*cs.Cin, cs.Cout
		totalRows = batch * cs.OutH() * cs.OutW()
		macs = float64(cs.MACsPerExample()) * float64(batch)
	}
	rowTiles := ceilDiv(rows, dim)
	colTiles := ceilDiv(cols, dim)
	tiles := rowTiles * colTiles

	accHalf := p.AccCount / 2
	chunkRows := accHalf / colTiles
	if chunkRows > accHalf {
		chunkRows = accHalf
	}
	// When a layer's rows exceed the double-buffered half but fit the full
	// accumulator file, the compiler gives up double buffering for that
	// layer rather than re-stream its weight tiles per chunk (CNN0's 2888
	// rows fit the 4096 accumulators this way).
	if totalRows > chunkRows && totalRows*colTiles <= p.AccCount {
		chunkRows = totalRows
	}
	if chunkRows > totalRows {
		chunkRows = totalRows
	}
	if chunkRows < 1 {
		chunkRows = 1
	}
	chunks := ceilDiv(totalRows, chunkRows)

	// Convolutions re-stream their tiles per accumulator chunk (the FIFO
	// is only four tiles deep); FC layers fit one chunk of weights.
	fetchPasses := 1
	if l.Kind == nn.Conv {
		fetchPasses = chunks
	} else if chunks > 1 {
		fetchPasses = chunks
	}
	tileBytes := float64(dim * dim)
	fetch := float64(tiles*fetchPasses) * tileBytes / memBPC
	compute := float64(totalRows*tiles) * (1 - p.ActivationZeroFrac)

	perTileFetch := tileBytes / memBPC
	var total float64
	if fetch > compute {
		// Memory bound: the fetch stream paces everything; one trailing
		// shift+compute drains the pipeline.
		total = fetch + float64(dim) + float64(min(chunkRows, totalRows))
	} else {
		// Compute bound: one leading fetch+shift fills the pipeline.
		total = compute + perTileFetch + float64(dim)
	}
	// Last chunk's activation drain is exposed by the next layer's sync
	// (one accumulator register per cycle).
	total += float64(min(chunkRows, totalRows))

	return layerCycles{total: total, macs: macs, outBytes: outEdgeBytes(l, batch)}
}

func outEdgeBytes(l nn.Layer, batch int) float64 {
	switch l.Kind {
	case nn.FC:
		return float64(batch * align256(l.Out))
	case nn.Conv:
		return float64(batch * l.Conv.OutH() * l.Conv.OutW() * l.Conv.Cout)
	default:
		return 0
	}
}

// positiveFinite reports whether x is a usable rate: NaN, infinities, zero
// and negatives are not.
func positiveFinite(x float64) bool { return x > 0 && x < math.Inf(1) }

func align256(n int) int { return (n + 255) &^ 255 }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ZeroSkipSpeedup estimates how much a future TPU with Cnvlutin-style
// zero-activation skipping would gain on one app at the given zero
// fraction. Memory-bound apps gain almost nothing (weights still stream);
// compute-bound CNNs approach 1/(1-frac).
func ZeroSkipSpeedup(m *nn.Model, zeroFrac float64) (float64, error) {
	base, err := Estimate(m, m.Batch, Production())
	if err != nil {
		return 0, err
	}
	p := Production()
	p.ActivationZeroFrac = zeroFrac
	sparse, err := Estimate(m, m.Batch, p)
	if err != nil {
		return 0, err
	}
	return base.Seconds(Production()) / sparse.Seconds(p), nil
}

// Sensitivity evaluates Figure 11's sweep: relative performance (batch
// time at scale 1 divided by batch time at scale s) for one app, knob, and
// scale.
func Sensitivity(m *nn.Model, k Knob, s float64) (float64, error) {
	base, err := Estimate(m, m.Batch, Production())
	if err != nil {
		return 0, err
	}
	scaled, err := Production().Scale(k, s)
	if err != nil {
		return 0, err
	}
	r, err := Estimate(m, m.Batch, scaled)
	if err != nil {
		return 0, err
	}
	return base.Seconds(Production()) / r.Seconds(scaled), nil
}
