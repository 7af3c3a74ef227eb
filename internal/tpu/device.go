// Package tpu implements the TPU device simulator: a functional model that
// really executes quantized inference through the systolic matrix unit,
// accumulators, activation unit and Unified Buffer, and a deterministic
// cycle-level timing model layered over the same instruction stream,
// exposing the performance counters behind Table 3.
//
// The microarchitectural events modeled follow Section 2:
//
//   - weight tiles stream from Weight Memory (34 GB/s DDR3) through a
//     four-tile FIFO, then shift into the matrix unit's double buffer
//     (256 cycles, overlappable with computation);
//   - a MatrixMultiply of B rows occupies the matrix unit for B pipelined
//     cycles (x2 or x4 for 16-bit operands);
//   - Activate drains accumulators through the nonlinearity hardware at
//     256 values per cycle;
//   - Sync instructions realize the "delay slot" where the matrix unit
//     waits for explicit synchronization before reading the Unified
//     Buffer, attributed to RAW or PCIe-input stalls;
//   - Read_Weights follows decoupled access/execute: it retires after
//     posting its address, and the matrix unit stalls only if data is not
//     ready when needed.
package tpu

import (
	"context"
	"fmt"
	"math"
	goruntime "runtime"

	"tpusim/internal/integrity"
	"tpusim/internal/isa"
	"tpusim/internal/memory"
	"tpusim/internal/pcie"
	"tpusim/internal/systolic"
)

// Config sets the device's physical parameters.
type Config struct {
	// ClockMHz is the core clock (700 for the production TPU).
	ClockMHz float64
	// WeightGBs is Weight Memory bandwidth (34 for DDR3; ~184 for the
	// GDDR5 TPU' of Section 7).
	WeightGBs float64
	// Functional enables the real datapath (Unified Buffer, systolic
	// array, accumulators). Timing-only runs skip data movement so that
	// full-size production models simulate quickly; the cycle accounting
	// is identical in both modes.
	Functional bool
	// FIFODepth overrides the weight FIFO depth in tiles (0 means the
	// production depth of 4). Exposed for the design-ablation study.
	FIFODepth int
	// Trace records per-instruction unit-occupancy events retrievable via
	// Device.Trace after a run.
	Trace bool
	// Parallelism is the worker count for the functional matrix kernel:
	// batch rows of each MatrixMultiply are sharded across this many
	// goroutines. 0 means GOMAXPROCS; 1 runs the hot loop serially on the
	// issuing goroutine (the pre-batching behaviour). Results are
	// bit-identical for every value, and the timing counters are computed
	// from the instruction stream alone, so they never depend on it.
	Parallelism int
	// Hook intercepts every program execution for fault injection (see
	// RunHook). nil — the production configuration — runs directly.
	Hook RunHook
	// Integrity selects the data-integrity machinery (see IntegrityLevel):
	// ABFT on matmul outputs, CRC/parity sidecars on every memory, PCIe
	// frame checks. Off — the default — runs the bare datapath. The timing
	// model charges the ABFT checksum columns' 2/256 occupancy whenever the
	// level is not Off, in timing-only runs too.
	Integrity IntegrityLevel
}

// The host link and the front end are fixed by the paper's §2 and swept by
// no experiment: pcieGBs is the effective host-link bandwidth (PCIe Gen3
// x16, ~14 GB/s sustained) and issueCycles the per-instruction front-end
// cost, which the CISC instructions' own execution dwarfs.
const (
	pcieGBs     = 14
	issueCycles = 4
)

// parallelism returns the effective functional worker count.
func (c Config) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return goruntime.GOMAXPROCS(0)
}

// fifoDepth returns the effective weight FIFO depth.
func (c Config) fifoDepth() int {
	if c.FIFODepth > 0 {
		return c.FIFODepth
	}
	return isa.WeightFIFODepth
}

// DefaultConfig returns the production TPU configuration.
func DefaultConfig() Config {
	return Config{ClockMHz: 700, WeightGBs: 34}
}

// Device is one TPU.
type Device struct {
	cfg Config

	// Functional state.
	ub   *memory.UnifiedBuffer
	acc  *memory.Accumulators
	arr  *systolic.Array
	regs [isa.RegCount]uint32

	// FIFO state: tile payloads (functional), ready times (timing), and
	// per-tile metadata, kept in fetch order. Pops advance fifoHead /
	// tileHead instead of reslicing, so the backing arrays are allocated
	// once per run (pre-sized to the program's total tile count) and reused
	// across runs.
	fifoTiles [][]int8
	fifoReady []float64
	fifoMeta  []isa.TileMeta
	fifoCRC   []uint32
	fifoHead  int
	tileHead  int
	fetchIdx  int
	popTimes  []float64
	// tile is the matrix unit's weight tile, a view plus the ABFT checksums
	// it latched from the bytes: each tile load re-points it at the FIFO
	// entry and shifts it into arr. The chip's second, double-buffering tile
	// hides the shift, which the timing model charges through shiftDone; the
	// functional model loads a tile only between two matmuls, so one tile
	// serves. tile and arr are built once, by New, and survive reset; tile is
	// behind a pointer so that reset's struct copy copies no lock.
	tile *systolic.Tile
	// mm and act are the matrix and activation units' staging scratch,
	// grown to the largest instruction seen and kept across runs.
	mm  matmulScratch
	act actScratch

	// Integrity state. gw is the live weight DRAM — the program's golden
	// image plus a copy of each tile a flip has upset, keyed to gwProg so
	// corruption persists across runs of one program until scrubbed — ledger
	// the lifetime ledger (allocated once so concurrent metric reads stay
	// safe), pendingFlips the queued fault injections; all three survive
	// reset. ubFlipped is the per-run "UB flips applied" latch.
	gw           *memory.GuardedWeights
	gwProg       *isa.Program
	ledger       *integrityLedger
	pendingFlips []Flip
	ubFlipped    bool

	// Timing state, in cycles. tileFetchCycles and fifoCap are per-run
	// caches of values that are constant for a run (weight bandwidth, clock
	// and FIFO depth never change mid-program) but were being recomputed —
	// a float divide and a branch — once per fetched tile in the exec loop.
	tileFetchCycles float64
	fifoCap         int
	issue           float64
	dramFree        float64
	shiftDone       float64
	matrixFree      float64
	actFree         float64
	pcieFree        float64
	barrier         float64
	accHalfFree     [2]float64

	prog *isa.Program
	host []int8
	c    Counters

	trace    []TraceEvent
	instrIdx int
	instrOp  isa.Opcode

	// Per-layer profiling: DebugTag markers snapshot the work frontier.
	profTags  []uint16
	profMarks []float64
}

// New creates a device.
func New(cfg Config) (*Device, error) {
	if cfg.ClockMHz <= 0 || cfg.WeightGBs <= 0 {
		return nil, fmt.Errorf("tpu: non-positive config parameter: %+v", cfg)
	}
	// NaN fails every comparison, so this catches it along with +Inf.
	if !(cfg.ClockMHz < math.Inf(1) && cfg.WeightGBs < math.Inf(1)) {
		return nil, fmt.Errorf("tpu: non-finite config parameter: %+v", cfg)
	}
	d := &Device{cfg: cfg, ledger: &integrityLedger{}}
	if cfg.Functional {
		d.ub = memory.NewUnifiedBuffer()
		d.acc = memory.NewAccumulators()
		d.arr = systolic.New()
		d.tile = new(systolic.Tile)
	}
	return d, nil
}

// Run executes a program against a host memory buffer (DMA source and
// destination) and returns the performance counters. The host slice is
// mutated in place by Write_Host_Memory. Runs pass through the device's
// RunHook when one is configured (fault injection); RunCtx is the variant
// that also threads a context into the hook.
func (d *Device) Run(p *isa.Program, host []int8) (Counters, error) {
	return d.RunCtx(context.Background(), p, host)
}

// run is the real, hook-free execution path.
func (d *Device) run(p *isa.Program, host []int8) (Counters, error) {
	if err := d.start(p, host); err != nil {
		return Counters{}, err
	}
	// The run's integrity counters fold into the lifetime ledger on every
	// exit path — a detected-corruption failure still counts its checks.
	defer d.flushInteg()
	for i := range p.Instructions {
		in := &p.Instructions[i]
		if d.cfg.Trace {
			// Only emitTrace reads these; skip the two stores per
			// instruction on untraced runs.
			d.instrIdx, d.instrOp = i, in.Op
		}
		times := in.Times()
		for rep := 0; rep < times; rep++ {
			if err := d.exec(in); err != nil {
				return Counters{}, fmt.Errorf("tpu: instruction %d (%s): %w", i, in, err)
			}
			d.c.Instructions++
			if in.Op == isa.OpHalt {
				d.finish()
				return d.c, nil
			}
		}
	}
	d.finish()
	return d.c, nil
}

// start readies the device for one run of p: validation, reset, the live
// weight DRAM (and the weight flips queued for this run — the only writes
// it sees until the run ends, bar a fetch-time repair), the per-run
// constants and the FIFO queues.
func (d *Device) start(p *isa.Program, host []int8) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if d.cfg.Functional && p.WeightImage == nil {
		return fmt.Errorf("tpu: functional run requires a weight image")
	}
	d.reset()
	d.prog = p
	d.host = host
	if err := memory.CheckWeightPlacement(len(p.WeightImage), p.WeightBase); err != nil {
		return err
	}
	if d.cfg.Functional {
		// Functional fetches go through the live weight DRAM so injected
		// corruption persists across runs of this program until scrubbed.
		if d.gwProg != p {
			gw, err := memory.NewGuardedWeights(p.WeightImage, p.WeightBase)
			if err != nil {
				return err
			}
			d.gw, d.gwProg = gw, p
		}
		d.applyFlips(FlipWeights, func(f Flip) { d.gw.FlipBit(f.Addr, f.Bit) })
		if d.cfg.Integrity != IntegrityOff {
			d.ub.EnableGuard()
			d.acc.EnableGuard()
		}
	}
	d.tileFetchCycles = memory.TileFetchCycles(d.cfg.WeightGBs, d.cfg.ClockMHz)
	d.fifoCap = d.cfg.fifoDepth()
	d.sizeFIFOs(p)
	return nil
}

func (d *Device) reset() {
	clear(d.fifoTiles) // drop the views: the queue's storage outlives the weight image
	// Keep the FIFO backing arrays so repeated runs on one device reuse
	// their allocations.
	fifoTiles, fifoReady := d.fifoTiles[:0], d.fifoReady[:0]
	fifoMeta, popTimes := d.fifoMeta[:0], d.popTimes[:0]
	*d = Device{cfg: d.cfg, ub: d.ub, acc: d.acc, arr: d.arr,
		fifoTiles: fifoTiles, fifoReady: fifoReady, fifoMeta: fifoMeta, popTimes: popTimes,
		fifoCRC: d.fifoCRC[:0], tile: d.tile, mm: d.mm, act: d.act,
		profTags: d.profTags[:0], profMarks: d.profMarks[:0],
		// Integrity state survives reset: the live weight DRAM keeps its
		// corruption, the ledger its history, the flip queue its injections.
		gw: d.gw, gwProg: d.gwProg, ledger: d.ledger, pendingFlips: d.pendingFlips}
	if d.cfg.Functional {
		// Nothing is rebuilt per run. The Unified Buffer's Reset clears
		// only the prefix the previous run dirtied, so a model touching a
		// few hundred KB pays that much memclr. The accumulators are not
		// cleared at all: a program overwrites a register before it reads
		// it. The tile is unloaded, so that the array has no active tile
		// at the start of a run and no weight image stays reachable after
		// the device has moved on to another program.
		d.ub.Reset()
		d.tile.Unload()
	}
}

// sizeFIFOs pre-sizes the FIFO queues to the program's total tile count so
// the hot exec loop never calls growslice. The count comes from the cache
// Program.Validate fills (run validates first), not a fresh stream walk.
func (d *Device) sizeFIFOs(p *isa.Program) {
	tiles := p.WeightTiles()
	if cap(d.fifoReady) < tiles {
		d.fifoReady = make([]float64, 0, tiles)
		d.fifoMeta = make([]isa.TileMeta, 0, tiles)
		d.popTimes = make([]float64, 0, tiles)
		if d.cfg.Functional {
			d.fifoTiles = make([][]int8, 0, tiles)
		}
	}
	if d.cfg.Functional && d.cfg.Integrity != IntegrityOff && cap(d.fifoCRC) < tiles {
		d.fifoCRC = make([]uint32, 0, tiles)
	}
}

func (d *Device) finish() {
	d.c.Cycles = int64(math.Ceil(d.frontier()))
}

// frontier is the furthest point any functional unit has committed work to
// — the device's virtual completion time.
func (d *Device) frontier() float64 {
	return fmax(d.issue, fmax(d.matrixFree, fmax(d.actFree, fmax(d.pcieFree, d.dramFree))))
}

func (d *Device) exec(in *isa.Instruction) error {
	d.issue += issueCycles
	switch in.Op {
	case isa.OpDebugTag:
		d.profTags = append(d.profTags, in.Tag)
		d.profMarks = append(d.profMarks, d.frontier())
		return nil
	case isa.OpNop, isa.OpInterruptHost, isa.OpHalt:
		return nil
	case isa.OpSetConfig:
		if int(in.Tag) >= len(d.regs) {
			return fmt.Errorf("unknown config register %d", in.Tag)
		}
		d.regs[in.Tag] = in.Len
		return nil
	case isa.OpReadHostMemory, isa.OpReadHostMemoryAlt:
		return d.execReadHost(in)
	case isa.OpWriteHostMemory, isa.OpWriteHostMemoryAlt:
		return d.execWriteHost(in)
	case isa.OpReadWeights:
		return d.execReadWeights(in)
	case isa.OpMatrixMultiply:
		return d.execMatmul(in)
	case isa.OpActivate:
		return d.execActivate(in)
	case isa.OpSync, isa.OpSyncHost:
		d.execSync()
		return nil
	default:
		return fmt.Errorf("unimplemented opcode %s", in.Op)
	}
}

func (d *Device) pcieLink() pcie.Link {
	return pcie.Link{GBs: pcieGBs}
}

func (d *Device) execReadHost(in *isa.Instruction) error {
	start := fmax(d.pcieFree, d.issue)
	d.pcieFree = start + d.pcieLink().TransferCycles(int64(in.Len), d.cfg.ClockMHz)
	d.emitTrace("pcie", start, d.pcieFree)
	d.c.DMAInBytes += int64(in.Len)
	if !d.cfg.Functional {
		return nil
	}
	if in.Addr+uint64(in.Len) > uint64(len(d.host)) {
		return fmt.Errorf("host read %#x+%d outside %d-byte host buffer", in.Addr, in.Len, len(d.host))
	}
	src := d.host[in.Addr : in.Addr+uint64(in.Len)]
	if d.cfg.Integrity == IntegrityOff {
		return d.ub.Write(in.UBAddr, src)
	}
	// Frame the transfer: seal over the host source, verify over the bytes
	// that landed in the UB.
	fr := pcie.Seal(src)
	if err := d.ub.Write(in.UBAddr, src); err != nil {
		return err
	}
	dst, err := d.ub.View(in.UBAddr, int(in.Len))
	if err != nil {
		return err
	}
	return d.verifySealed(fr, dst, "pcie-in")
}

func (d *Device) execWriteHost(in *isa.Instruction) error {
	start := fmax(d.pcieFree, fmax(d.issue, d.barrier))
	d.pcieFree = start + d.pcieLink().TransferCycles(int64(in.Len), d.cfg.ClockMHz)
	d.emitTrace("pcie", start, d.pcieFree)
	d.c.DMAOutBytes += int64(in.Len)
	if !d.cfg.Functional {
		return nil
	}
	if in.Addr+uint64(in.Len) > uint64(len(d.host)) {
		return fmt.Errorf("host write %#x+%d outside %d-byte host buffer", in.Addr, in.Len, len(d.host))
	}
	// Outbound data is about to leave the device: last chance to catch UB
	// corruption before it ships.
	if err := d.verifyUB(in.UBAddr, int(in.Len), "unified-buffer"); err != nil {
		return err
	}
	data, err := d.ub.View(in.UBAddr, int(in.Len))
	if err != nil {
		return err
	}
	if d.cfg.Integrity == IntegrityOff {
		copy(d.host[in.Addr:], data)
		return nil
	}
	fr := pcie.Seal(data)
	copy(d.host[in.Addr:], data)
	return d.verifySealed(fr, d.host[in.Addr:in.Addr+uint64(in.Len)], "pcie-out")
}

func (d *Device) execReadWeights(in *isa.Instruction) error {
	fetchCycles := d.tileFetchCycles
	for t := 0; t < int(in.TileCount); t++ {
		addr := in.Addr + uint64(t)*isa.WeightTileBytes
		start := fmax(d.dramFree, d.issue)
		// FIFO backpressure: the DRAM cannot push tile k until tile
		// k-depth has left the FIFO for the matrix unit.
		if d.fetchIdx >= d.fifoCap {
			backIdx := d.fetchIdx - d.fifoCap
			if backIdx < len(d.popTimes) {
				start = fmax(start, d.popTimes[backIdx])
			} else {
				return fmt.Errorf("weight FIFO overflow: tile %d fetched before tile %d popped", d.fetchIdx, backIdx)
			}
		}
		ready := start + fetchCycles
		d.emitTrace("dram", start, ready)
		d.dramFree = ready
		d.fifoReady = append(d.fifoReady, ready)
		d.fifoMeta = append(d.fifoMeta, d.tileMeta(addr))
		d.fetchIdx++
		d.c.WeightTilesFetched++
		if d.cfg.Functional {
			tile, err := d.fetchGuardedTile(addr)
			if err != nil {
				return err
			}
			d.fifoTiles = append(d.fifoTiles, tile)
			if d.cfg.Integrity != IntegrityOff {
				// Seal the tile entering the FIFO; the pop re-checks it.
				d.fifoCRC = append(d.fifoCRC, integrity.CRC(tile))
			}
		}
	}
	return nil
}

func (d *Device) tileMeta(addr uint64) isa.TileMeta {
	idx := int((addr - d.prog.WeightBase) / isa.WeightTileBytes)
	if idx < len(d.prog.TileMeta) {
		return d.prog.TileMeta[idx]
	}
	return isa.TileMeta{Rows: isa.MatrixDim, Cols: isa.MatrixDim}
}

func (d *Device) execMatmul(in *isa.Instruction) error {
	base := fmax(d.matrixFree, d.issue)

	meta := isa.TileMeta{Rows: isa.MatrixDim, Cols: isa.MatrixDim}
	if in.Flags&isa.FlagLoadTile != 0 {
		if d.fifoHead >= len(d.fifoReady) {
			return fmt.Errorf("matrix multiply pops empty weight FIFO")
		}
		readyAt := d.fifoReady[d.fifoHead]
		meta = d.fifoMeta[d.fifoHead]
		d.fifoHead++
		// The tile leaves the FIFO when its shift into the shadow buffer
		// begins; shifts serialize on the (single) shadow buffer.
		shiftStart := fmax(readyAt, d.shiftDone)
		d.popTimes = append(d.popTimes, shiftStart)
		d.shiftDone = shiftStart + float64(systolic.ShiftCycles())
		d.emitTrace("shift", shiftStart, d.shiftDone)

		// Attribute idle time before this op: first waiting on DRAM
		// (tile not yet in FIFO), then on the shift; waits on UB data
		// (the barrier) stay in the non-matrix residual, explained by the
		// RAW/input counters recorded at Sync.
		start := fmax(base, fmax(d.shiftDone, d.barrier))
		if start > base {
			fetchWait := clamp(fmin(start, readyAt)-base, 0, start-base)
			shiftWait := clamp(fmin(start, d.shiftDone)-fmax(base, readyAt), 0, start-base-fetchWait)
			d.c.WeightStall += int64(fetchWait)
			d.c.WeightShift += int64(shiftWait)
		}
		if d.cfg.Functional {
			entry := d.fifoTiles[d.tileHead]
			if err := d.verifyFIFOTile(d.tileHead, entry); err != nil {
				return err
			}
			d.tileHead++
			// The tile views the FIFO entry's bytes — for a tile the weight
			// image covers, the live DRAM bytes themselves — so weight-DRAM
			// corruption reaches every check and every multiply.
			if err := d.tile.Load(entry); err != nil {
				return err
			}
			if err := d.arr.LoadShadow(d.tile); err != nil {
				return err
			}
			if err := d.arr.Commit(); err != nil {
				return err
			}
		}
	}

	mode := systolic.ModeFor(in.Flags)
	rows, usedRows := d.matmulShape(in)
	usedRows = min(usedRows, int(meta.Rows))
	usedCols := int(meta.Cols)

	start := fmax(base, fmax(d.barrier, d.shiftDoneIfLoading(in)))
	// Accumulator WAR hazard: overwriting a half that a previous Activate
	// is still draining.
	if in.Flags&isa.FlagAccumulate == 0 {
		start = fmax(start, d.accHalfFree[accHalf(in.AccAddr)])
	}
	var active float64
	if d.cfg.Integrity != IntegrityOff {
		// The two ABFT checksum columns ride through the array: 258 wide.
		active = float64(systolic.ABFTComputeCycles(rows, mode))
	} else {
		active = float64(systolic.ComputeCycles(rows, mode))
	}
	d.matrixFree = start + active
	d.emitTrace("matrix", start, d.matrixFree)

	d.c.MatrixActive += int64(active)
	d.c.UsefulMACCycles += active * systolic.Utilization(usedRows, usedCols)
	d.c.MACs += float64(rows) * float64(usedRows) * float64(usedCols)
	d.c.Matmuls++

	if d.cfg.Functional {
		return d.matmulData(in, rows, usedRows)
	}
	return nil
}

func (d *Device) shiftDoneIfLoading(in *isa.Instruction) float64 {
	if in.Flags&isa.FlagLoadTile != 0 {
		return d.shiftDone
	}
	return 0
}

// matmulShape returns (rows pushed through the array, valid contraction
// rows) for the instruction.
func (d *Device) matmulShape(in *isa.Instruction) (rows, usedRows int) {
	if in.Flags&isa.FlagConvolve != 0 {
		positions, patchRows := isa.UnpackConvDims(in.Len)
		return int(positions), int(patchRows)
	}
	used := int(d.regs[isa.RegMatRows])
	if used == 0 || used > isa.MatrixDim {
		used = isa.MatrixDim
	}
	return int(in.Len), used
}

func accHalf(accAddr uint16) int {
	if int(accAddr) < isa.AccumulatorCount/2 {
		return 0
	}
	return 1
}

func (d *Device) execActivate(in *isa.Instruction) error {
	// The activation unit drains one 256-wide accumulator register per
	// cycle (partial columns included — the register read is the unit of
	// work); in UB-sourced vector mode it processes 256 bytes per cycle.
	var duration float64
	fromUB := in.Flags&isa.FlagVecSrcUB != 0
	if fromUB {
		duration = float64((int64(in.Len) + isa.UBRowBytes - 1) / isa.UBRowBytes)
	} else {
		duration = float64(in.Len)
	}

	start := fmax(d.actFree, d.issue)
	if fromUB {
		start = fmax(start, d.barrier)
	} else {
		// Accumulator data is visible once the in-order matrix pipeline
		// has drained its wavefront.
		start = fmax(start, d.matrixFree+float64(systolic.FillLatency()))
	}
	d.actFree = start + duration
	d.emitTrace("activation", start, d.actFree)
	if !fromUB {
		d.accHalfFree[accHalf(in.AccAddr)] = d.actFree
	}
	d.c.Activates++

	if d.cfg.Functional {
		return d.activateData(in, fromUB)
	}
	return nil
}

func (d *Device) execSync() {
	base := fmax(d.matrixFree+float64(systolic.FillLatency()), d.issue)
	barrier := fmax(base, fmax(d.actFree, d.pcieFree))
	if d.actFree >= d.pcieFree {
		d.c.RAWStall += int64(fmax(0, d.actFree-fmax(base, d.pcieFree)))
		d.c.InputStall += int64(fmax(0, d.pcieFree-base))
	} else {
		d.c.InputStall += int64(fmax(0, d.pcieFree-fmax(base, d.actFree)))
		d.c.RAWStall += int64(fmax(0, d.actFree-base))
	}
	d.emitTrace("sync", fmin(d.issue, barrier), barrier)
	d.barrier = barrier
	d.issue = barrier
}

// fmax / fmin are branch-cheap float max/min for the timing math. The
// simulator's timestamps are always finite and non-NaN, so skipping
// math.Max's NaN/signed-zero handling is behaviour-preserving and keeps
// the exec loop free of function-call overhead.
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
