package compiler

import (
	"fmt"
	"sync"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
	"tpusim/internal/nn"
)

// Options configures compilation.
type Options struct {
	// Allocator selects the Unified Buffer allocation strategy (Table 8).
	Allocator Kind
	// BatchOverride replaces the model's production batch size when > 0
	// (used by the latency experiments that sweep batch size).
	BatchOverride int
	// Weights16 and Acts16 mark 16-bit weights/activations: the matrix
	// unit runs at half speed with either, quarter speed with both
	// (Section 2). Timing-only — the functional datapath is 8-bit, and
	// the doubled weight-byte traffic of 16-bit weights is not modeled
	// (only the MAC-rate effect is).
	Weights16, Acts16 bool
	// WeightBase places the model's weight image at a tile-aligned offset
	// in the 8 GiB Weight Memory, letting several models stay resident
	// simultaneously ("8 GiB supports many simultaneously active models").
	WeightBase uint64
}

// precisionFlags returns the instruction flag bits for the options.
func (o Options) precisionFlags() uint16 {
	var f uint16
	if o.Weights16 {
		f |= isa.FlagWeights16
	}
	if o.Acts16 {
		f |= isa.FlagActs16
	}
	return f
}

// Layout tells the host driver where data lives in the shared host buffer
// and how examples are laid out ("reformats data into TPU order").
type Layout struct {
	// HostBytes is the size of the host DMA buffer.
	HostBytes int
	// InputAddr locates the input image; each example occupies
	// InputStride bytes (activations are padded to 256-byte rows except in
	// raw convolution layouts).
	InputAddr, InputStride int
	// InElems is the count of valid input elements per example.
	InElems int
	// OutputAddr/OutputBytes/OutputStride/OutElems mirror the above for
	// the model output.
	OutputAddr, OutputBytes, OutputStride int
	OutElems                              int
	// Batch is the compiled batch size.
	Batch int
}

// Artifact is a compiled model: the program image plus driver metadata.
type Artifact struct {
	Program *isa.Program
	Layout  Layout
	// HostImage is the initial host buffer contents (vector-layer operand
	// data baked in); nil for timing-only compilations.
	HostImage []int8
	// UBPeakBytes is the allocator's high-water mark (Table 8).
	UBPeakBytes int
	// WeightTiles is the number of distinct 64 KiB tiles in the image.
	WeightTiles int
}

// Compile lowers a quantized model into a fully functional TPU program.
func Compile(qm *nn.QuantizedModel, opts Options) (*Artifact, error) {
	if opts.Weights16 || opts.Acts16 {
		return nil, fmt.Errorf("compiler: 16-bit modes are timing-only; use CompileShape")
	}
	return compile(qm.Model, qm, opts)
}

// CompileShape lowers a model's shapes only: the emitted program has
// identical instruction structure and timing but no weight or host data,
// letting full-size production models (100M weights) compile and simulate
// in milliseconds.
func CompileShape(m *nn.Model, opts Options) (*Artifact, error) {
	return compile(m, nil, opts)
}

// edge describes one activation buffer in the Unified Buffer.
type edge struct {
	addr   uint32
	stride int // bytes per example (padded) or per position (conv raw)
	elems  int // valid elements per example
	bytes  int
}

type lowering struct {
	m     *nn.Model
	qm    *nn.QuantizedModel
	opts  Options
	batch int

	ins    []isa.Instruction
	regs   [isa.RegCount]uint32
	regSet [isa.RegCount]bool

	alloc       Allocator
	weightImage []int8
	weightNext  int64
	tileMeta    []isa.TileMeta
	actTable    []isa.ActMeta
	layerTiles  []int64 // weight image base address per layer

	operandAddr []uint32 // UB address of each layer's vector operand

	hostImage []int8
	hostNext  int

	chunkParity int

	// Emit-time validation state (see Program.MarkValidated): the first
	// invalid instruction latches here, and tilesEmitted accumulates the
	// ReadWeights total that Program.Validate would otherwise recount.
	emitErr      error
	tilesEmitted int

	// Pooled scratch (see loweringPool): per-compile working storage that
	// never escapes into the Artifact, kept across compiles.
	specs    []edgeSpec
	operands []operandDMA
	reuse    *reuseAlloc
}

// operandDMA stages one vector layer's persistent operand upload.
type operandDMA struct {
	ubAddr   uint32
	hostAddr int
	bytes    int
}

// loweringPool recycles per-compile scratch: the lowering struct itself,
// its shape/addressing slices, and the reuse allocator's free list. Only
// state that never escapes into the returned Artifact is retained;
// putLowering detaches everything else.
var loweringPool sync.Pool

func getLowering() *lowering {
	if lo, _ := loweringPool.Get().(*lowering); lo != nil {
		return lo
	}
	return &lowering{}
}

func putLowering(lo *lowering) {
	*lo = lowering{
		layerTiles:  lo.layerTiles[:0],
		operandAddr: lo.operandAddr[:0],
		specs:       lo.specs[:0],
		operands:    lo.operands[:0],
		reuse:       lo.reuse,
	}
	loweringPool.Put(lo)
}

func compile(m *nn.Model, qm *nn.QuantizedModel, opts Options) (*Artifact, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Layers) > 255 {
		return nil, fmt.Errorf("compiler: %d layers exceed the 8-bit Activate func selector", len(m.Layers))
	}
	batch := m.Batch
	if opts.BatchOverride > 0 {
		batch = opts.BatchOverride
	}
	if opts.WeightBase%isa.WeightTileBytes != 0 {
		return nil, fmt.Errorf("compiler: weight base %#x not tile-aligned", opts.WeightBase)
	}
	lo := getLowering()
	defer putLowering(lo)
	lo.m, lo.qm, lo.opts, lo.batch = m, qm, opts, batch
	lo.weightNext = int64(opts.WeightBase)
	switch opts.Allocator {
	case Reuse:
		// The reuse allocator's free list rides the pooled scratch.
		if lo.reuse == nil {
			lo.reuse = newReuseAlloc(isa.UnifiedBufferBytes)
		} else {
			lo.reuse.reset(isa.UnifiedBufferBytes)
		}
		lo.alloc = lo.reuse
	default:
		alloc, err := NewAllocator(opts.Allocator)
		if err != nil {
			return nil, err
		}
		lo.alloc = alloc
	}
	key := shapeKey{m.Name, batch, opts.Allocator, opts.Weights16, opts.Acts16}
	if h, ok := insCapHint.Load(key); ok {
		// Recompiling a known shape (benchmark harness, cache invalidation):
		// grab recycled instruction/tile-metadata slabs when they are big
		// enough — skipping the allocations and their zeroing, the compile
		// path's largest — and otherwise pre-size both to skip every
		// growslice copy.
		hint := h.(capHint)
		if sp, _ := insSlabPool.Get().(*[]isa.Instruction); sp != nil && cap(*sp) >= hint.ins {
			lo.ins = (*sp)[:0]
		} else {
			lo.ins = make([]isa.Instruction, 0, hint.ins)
		}
		if hint.tiles > 0 {
			if tp, _ := tileSlabPool.Get().(*[]isa.TileMeta); tp != nil && cap(*tp) >= hint.tiles {
				lo.tileMeta = (*tp)[:0]
			} else {
				lo.tileMeta = make([]isa.TileMeta, 0, hint.tiles)
			}
		}
	}

	if err := lo.buildWeights(); err != nil {
		return nil, err
	}
	lo.buildActTable()

	layout, err := lo.emitProgram()
	if err != nil {
		return nil, err
	}
	// Store the hint only when it changed: a sync.Map Store allocates an
	// entry even for an identical value, and in recompile loops the hint is
	// almost always already right.
	hint := capHint{ins: len(lo.ins), tiles: len(lo.tileMeta)}
	if old, ok := insCapHint.Load(key); !ok || old.(capHint) != hint {
		insCapHint.Store(key, hint)
	}

	prog := &isa.Program{
		Name:         m.Name,
		Instructions: lo.ins,
		TileMeta:     lo.tileMeta,
		ActTable:     lo.actTable,
	}
	if lo.qm != nil {
		// Never nil, even empty for a model with no matrix layers: a
		// functional program is told from a timing-only one by its image.
		prog.WeightImage = lo.weightImage
	} else {
		prog.WeightBytes = lo.weightNext - int64(opts.WeightBase)
	}
	prog.WeightBase = opts.WeightBase
	// Every Validate invariant is already established: per-instruction
	// checks and weight-range checks ran at emit time (emit), the image
	// size bound in buildWeights, base alignment above, and a compiled
	// program is never empty (emitProgram always ends with Halt).
	if lo.emitErr != nil {
		return nil, fmt.Errorf("compiler: generated invalid program: %w", lo.emitErr)
	}
	prog.MarkValidated(lo.tilesEmitted)
	return &Artifact{
		Program:     prog,
		Layout:      layout,
		HostImage:   lo.hostImage,
		UBPeakBytes: lo.alloc.Peak(),
		WeightTiles: len(lo.tileMeta),
	}, nil
}

// shapeKey identifies a compiled shape. A comparable struct key keeps the
// hint lookup off fmt.Sprintf on the recompile path.
type shapeKey struct {
	name  string
	batch int
	alloc Kind
	w16   bool
	a16   bool
}

// capHint remembers a compiled shape's emitted instruction count and weight
// tile count, so recompiles allocate both streams in one shot.
type capHint struct{ ins, tiles int }

// insCapHint maps shapeKey -> capHint.
var insCapHint sync.Map

// insSlabPool and tileSlabPool recycle instruction-stream and tile-metadata
// backing arrays between compiles. A compile only draws from a pool when the
// recycled slab covers the shape's known counts, so pooling never
// reintroduces growslice copies.
var (
	insSlabPool  sync.Pool
	tileSlabPool sync.Pool
)

// Recycle returns an artifact's instruction and tile-metadata slabs to the
// compiler's pools. The artifact and its program must not be used
// afterwards. It exists for recompile-heavy paths (the benchmark harness's
// regenerate loop, shape sweeps): the instruction stream is the compile
// path's largest allocation, and recycling it takes both the allocation and
// the GC churn off the loop. The usual compile-once-cache-forever path can
// ignore it.
func Recycle(art *Artifact) {
	if art == nil || art.Program == nil {
		return
	}
	if ins := art.Program.Instructions; cap(ins) > 0 {
		ins = ins[:0]
		art.Program.Instructions = nil
		insSlabPool.Put(&ins)
	}
	if tm := art.Program.TileMeta; cap(tm) > 0 {
		tm = tm[:0]
		art.Program.TileMeta = nil
		tileSlabPool.Put(&tm)
	}
}

// emit appends one instruction. The compiler establishes operand validity
// by construction rather than re-checking each instruction: Unified Buffer
// addresses come from its allocator (row-aligned, bounds-checked on
// allocation), accumulator indices from the chunk loop (always <
// AccumulatorCount), and lengths from layer shapes the front end already
// rejected if degenerate. Re-running isa.Instruction.Validate here costs a
// fifth of the whole compile-and-simulate cycle for checks that cannot fire,
// so compile marks the program validated wholesale (see
// Program.MarkValidated) and a conformance test re-runs full Validate over
// compiled output for every model and option set to keep the claim honest.
// The weight-range check below stays: weight addressing crosses two
// independently-computed layouts (buildWeights and the per-layer tile walk),
// which construction alone does not tie together.
func (lo *lowering) emit(in isa.Instruction) {
	if in.Op == isa.OpReadWeights {
		lo.tilesEmitted += int(in.TileCount) * in.Times()
		end := in.Addr + uint64(in.TileCount)*isa.WeightTileBytes
		if (in.Addr < lo.opts.WeightBase || end > uint64(lo.weightNext)) && lo.emitErr == nil {
			lo.emitErr = fmt.Errorf("instruction %d reads weights [%#x,%#x) outside image [%#x,%#x)",
				len(lo.ins), in.Addr, end, lo.opts.WeightBase, lo.weightNext)
		}
	}
	lo.ins = append(lo.ins, in)
}

// setReg emits a SetConfig only when the register value changes.
func (lo *lowering) setReg(reg uint16, val uint32) {
	if lo.regSet[reg] && lo.regs[reg] == val {
		return
	}
	lo.regs[reg] = val
	lo.regSet[reg] = true
	lo.emit(isa.Instruction{Op: isa.OpSetConfig, Tag: reg, Len: val})
}

func (lo *lowering) sync() {
	lo.emit(isa.Instruction{Op: isa.OpSync})
}

// hostAlloc reserves space in the host DMA buffer.
func (lo *lowering) hostAlloc(n int) int {
	addr := lo.hostNext
	lo.hostNext += alignUp(n)
	return addr
}

// timingLUT is the shared placeholder lookup table for timing-only
// compilations: every layer gets the same identity pipeline, so building
// one immutable table once (instead of per layer per compile) keeps the
// benchmark harness' recompile loop off the LUT constructor.
var timingLUT = sync.OnceValue(func() *fixed.LUT {
	p := fixed.Params{Scale: 1}
	return fixed.NewLUT(fixed.Identity, p, p)
})

// buildActTable creates the per-layer requantization pipelines the Activate
// instruction's Func field selects.
func (lo *lowering) buildActTable() {
	n := len(lo.m.Layers)
	lo.actTable = make([]isa.ActMeta, n)
	for i, l := range lo.m.Layers {
		if lo.qm == nil {
			// Timing-only: a well-formed placeholder.
			lo.actTable[i] = isa.ActMeta{SrcScale: 1, Pre: fixed.Params{Scale: 1}, Lut: timingLUT()}
			continue
		}
		meta := isa.ActMeta{Pre: lo.qm.Pre[i], Lut: lo.qm.LUT[i]}
		switch {
		case l.Kind == nn.FC || l.Kind == nn.Conv:
			meta.SrcScale = lo.qm.Edge[i].Scale * lo.qm.WScale[i]
		case l.Kind == nn.Vector && l.VOp == nn.VecScale:
			meta.SrcScale = lo.qm.Edge[i].Scale * lo.qm.WScale[i]
		default:
			meta.SrcScale = lo.qm.Edge[i].Scale
		}
		lo.actTable[i] = meta
	}
}
