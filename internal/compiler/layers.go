package compiler

import (
	"fmt"

	"tpusim/internal/isa"
	"tpusim/internal/nn"
)

// edgeSpec is the layout of one activation edge, independent of placement.
type edgeSpec struct {
	stride int // bytes per example
	elems  int // valid elements per example
	raw    bool
	bytes  int // total buffer bytes for the batch
}

// edgeSpecs computes the layout of every activation edge. Edge i feeds
// layer i; edge len(layers) is the model output.
func (lo *lowering) edgeSpecs() ([]edgeSpec, error) {
	n := len(lo.m.Layers)
	var specs []edgeSpec
	if cap(lo.specs) >= n+1 {
		specs = lo.specs[:n+1] // every entry is assigned below
	} else {
		specs = make([]edgeSpec, n+1)
		lo.specs = specs
	}
	first := lo.m.Layers[0]
	if first.Kind == nn.Conv {
		e := first.Conv.H * first.Conv.W * first.Conv.Cin
		specs[0] = edgeSpec{stride: e, elems: e, raw: true}
	} else {
		e := first.InputElems()
		specs[0] = edgeSpec{stride: alignUp(e), elems: e}
	}
	for i, l := range lo.m.Layers {
		in := specs[i]
		switch l.Kind {
		case nn.FC:
			if in.elems != l.In {
				return nil, fmt.Errorf("compiler: layer %d (%s) wants %d inputs, edge has %d", i, l.Name, l.In, in.elems)
			}
			if in.stride%isa.UBRowBytes != 0 {
				return nil, fmt.Errorf("compiler: layer %d (%s): input stride %d not 256-byte aligned (raw conv output with Cout*OH*OW %% 256 != 0)",
					i, l.Name, in.stride)
			}
			specs[i+1] = edgeSpec{stride: alignUp(l.Out), elems: l.Out}
		case nn.Conv:
			want := l.Conv.H * l.Conv.W * l.Conv.Cin
			if !in.raw || in.elems != want {
				return nil, fmt.Errorf("compiler: layer %d (%s) needs a raw [H,W,Cin] edge of %d elems, have raw=%v elems=%d",
					i, l.Name, want, in.raw, in.elems)
			}
			e := l.Conv.OutH() * l.Conv.OutW() * l.Conv.Cout
			specs[i+1] = edgeSpec{stride: e, elems: e, raw: true}
		case nn.Vector:
			if in.elems != l.Width {
				return nil, fmt.Errorf("compiler: layer %d (%s) wants width %d, edge has %d", i, l.Name, l.Width, in.elems)
			}
			specs[i+1] = in
		case nn.Pool:
			if !in.raw {
				return nil, fmt.Errorf("compiler: layer %d (%s): pooling needs a raw spatial edge", i, l.Name)
			}
			e := in.elems / (l.PoolWindow * l.PoolWindow)
			specs[i+1] = edgeSpec{stride: e, elems: e, raw: true}
		}
	}
	for i := range specs {
		specs[i].bytes = lo.batch * specs[i].stride
	}
	return specs, nil
}

func (lo *lowering) emitProgram() (Layout, error) {
	specs, err := lo.edgeSpecs()
	if err != nil {
		return Layout{}, err
	}
	n := len(lo.m.Layers)

	// Persistent vector-operand buffers, resident for the whole program
	// like the weight image: allocated first, DMAed once.
	if cap(lo.operandAddr) >= n {
		lo.operandAddr = lo.operandAddr[:n]
		clear(lo.operandAddr)
	} else {
		lo.operandAddr = make([]uint32, n)
	}
	operands := lo.operands[:0]
	for i, l := range lo.m.Layers {
		if l.Kind != nn.Vector || l.VOp == nn.VecActivation {
			continue
		}
		period := specs[i].stride
		addr, err := lo.alloc.Alloc(period)
		if err != nil {
			return Layout{}, err
		}
		lo.operandAddr[i] = addr
		hostAddr := lo.hostAlloc(period)
		operands = append(operands, operandDMA{ubAddr: addr, hostAddr: hostAddr, bytes: period})
		if lo.qm != nil {
			lo.appendOperandData(i, hostAddr, period)
		}
	}
	lo.operands = operands // keep the (possibly regrown) scratch for reuse

	// Input edge.
	inAddr, err := lo.alloc.Alloc(specs[0].bytes)
	if err != nil {
		return Layout{}, err
	}
	inputHostAddr := lo.hostAlloc(specs[0].bytes)
	layout := Layout{
		InputAddr:   inputHostAddr,
		InputStride: specs[0].stride,
		InElems:     specs[0].elems,
		Batch:       lo.batch,
	}

	lo.emit(isa.Instruction{
		Op: isa.OpReadHostMemory, Addr: uint64(inputHostAddr),
		UBAddr: inAddr, Len: uint32(specs[0].bytes),
	})
	for _, o := range operands {
		lo.emit(isa.Instruction{
			Op: isa.OpReadHostMemoryAlt, Addr: uint64(o.hostAddr),
			UBAddr: o.ubAddr, Len: uint32(o.bytes),
		})
	}
	lo.sync()

	// Layer pipeline, unrolled over time steps.
	cur := edge{addr: inAddr, stride: specs[0].stride, elems: specs[0].elems, bytes: specs[0].bytes}
	for step := 0; step < lo.m.TimeSteps; step++ {
		for i, l := range lo.m.Layers {
			// Layer marker for per-layer profiling (device attributes the
			// following instructions' time to this tag).
			lo.emit(isa.Instruction{Op: isa.OpDebugTag, Tag: uint16(i)})
			outAddr, err := lo.alloc.Alloc(specs[i+1].bytes)
			if err != nil {
				return Layout{}, err
			}
			out := edge{addr: outAddr, stride: specs[i+1].stride, elems: specs[i+1].elems, bytes: specs[i+1].bytes}
			switch l.Kind {
			case nn.FC:
				lo.sync()
				lo.lowerMatrixLayer(i, l.In, l.Out, lo.batch, cur, out, false, nil)
			case nn.Conv:
				lo.sync()
				lo.lowerConvLayer(i, l, cur, out)
			case nn.Vector:
				lo.lowerVectorLayer(i, l, cur, out)
			case nn.Pool:
				if err := lo.lowerPoolLayer(i, l, cur, out); err != nil {
					return Layout{}, err
				}
			}
			if err := lo.alloc.Free(cur.addr); err != nil {
				return Layout{}, err
			}
			cur = out
		}
	}

	// Drain and write the result back.
	lo.sync()
	outputHostAddr := lo.hostAlloc(cur.bytes)
	layout.OutputAddr = outputHostAddr
	layout.OutputBytes = cur.bytes
	layout.OutputStride = cur.stride
	layout.OutElems = cur.elems
	lo.emit(isa.Instruction{
		Op: isa.OpWriteHostMemory, UBAddr: cur.addr,
		Addr: uint64(outputHostAddr), Len: uint32(cur.bytes),
	})
	lo.emit(isa.Instruction{Op: isa.OpSyncHost})
	lo.emit(isa.Instruction{Op: isa.OpInterruptHost})
	lo.emit(isa.Instruction{Op: isa.OpHalt})

	layout.HostBytes = lo.hostNext
	if lo.qm != nil {
		img := make([]int8, lo.hostNext)
		copy(img, lo.hostImage)
		lo.hostImage = img
	}
	return layout, nil
}

// appendOperandData writes a vector layer's operand into the host image:
// VecScale operands are the layer's quantized weights; VecBias operands are
// requantized into the layer's input edge domain so the device can add them
// directly (matching nn.QuantizedModel semantics bit for bit).
func (lo *lowering) appendOperandData(layer, hostAddr, period int) {
	for len(lo.hostImage) < hostAddr+period {
		lo.hostImage = append(lo.hostImage, 0)
	}
	l := lo.m.Layers[layer]
	w := lo.qm.Weights[layer]
	for j := 0; j < l.Width; j++ {
		switch l.VOp {
		case nn.VecScale:
			lo.hostImage[hostAddr+j] = w.Data[j]
		case nn.VecBias:
			lo.hostImage[hostAddr+j] = lo.qm.Edge[layer].Quantize(
				lo.qm.WScale[layer] * float32(int32(w.Data[j])))
		}
	}
}

// lowerMatrixLayer emits the tiled matmul schedule shared by FC layers and
// (via conv=true) convolution layers: for each accumulator chunk, for each
// column tile, accumulate across row tiles then drain through Activate.
// rows/cols are the weight matrix dims; totalRows is the activation row
// count pushed through the array.
func (lo *lowering) lowerMatrixLayer(layer, rows, cols, totalRows int, in, out edge, conv bool, l *nn.Layer) {
	rowsPerTile := lo.tileRows()
	rowTiles := ceilDiv(rows, rowsPerTile)
	colTiles := ceilDiv(cols, isa.MatrixDim)
	half := isa.AccumulatorCount / 2
	maxChunk := half / colTiles
	if maxChunk > half {
		maxChunk = half
	}
	fullFile := false
	// Layers whose rows exceed the double-buffered half but fit the full
	// 4096-register file run as a single chunk without double buffering,
	// avoiding a weight-tile re-stream per chunk.
	if totalRows > maxChunk && totalRows*colTiles <= isa.AccumulatorCount {
		maxChunk = totalRows
		fullFile = true
	}
	if maxChunk > totalRows {
		maxChunk = totalRows
	}
	// Conv chunk starts must stay 256-row aligned so Activate UB addresses
	// stay row-aligned for any Cout.
	if conv && totalRows > maxChunk && maxChunk > isa.UBRowBytes {
		maxChunk &^= isa.UBRowBytes - 1
	}

	outStride := out.stride
	if conv {
		outStride = l.Conv.Cout
	}
	baseFlags := isa.FlagLoadTile | lo.opts.precisionFlags()

	for s := 0; s < totalRows; s += maxChunk {
		r := min(maxChunk, totalRows-s)
		accBase := lo.chunkParity * half
		if fullFile {
			accBase = 0
		}
		lo.chunkParity ^= 1
		if conv {
			lo.setReg(isa.RegConvChunkStart, uint32(s))
		}
		for c := 0; c < colTiles; c++ {
			acc := uint16(accBase + c*r)
			for rt := 0; rt < rowTiles; rt++ {
				lo.emit(isa.Instruction{
					Op:        isa.OpReadWeights,
					Addr:      lo.tileAddr(layer, rt, c, rowTiles),
					TileCount: 1,
				})
				flags := baseFlags
				if rt > 0 {
					flags |= isa.FlagAccumulate
				}
				usedRows := min(rowsPerTile, rows-rt*rowsPerTile)
				mm := isa.Instruction{
					Op: isa.OpMatrixMultiply, Flags: flags, AccAddr: acc,
					Func: uint8(layer),
				}
				if conv {
					lo.setReg(isa.RegConvRowTile, uint32(rt))
					mm.Flags |= isa.FlagConvolve
					mm.UBAddr = in.addr
					mm.Len = isa.ConvDims(uint16(r), uint16(usedRows))
				} else {
					lo.setReg(isa.RegMatRows, uint32(usedRows))
					lo.setReg(isa.RegMatStride, uint32(in.stride))
					// Tile rt's contraction slice starts rt*rowsPerTile
					// bytes into each input row; the instruction carries
					// the 256-byte-aligned part and RegMatSrcOff the rest.
					off := rt * rowsPerTile
					lo.setReg(isa.RegMatSrcOff, uint32(off%isa.UBRowBytes))
					mm.UBAddr = in.addr + uint32(s*in.stride+off-off%isa.UBRowBytes)
					mm.Len = uint32(r)
				}
				lo.emit(mm)
			}
			lo.setReg(isa.RegActCols, uint32(min(isa.MatrixDim, cols-c*isa.MatrixDim)))
			lo.setReg(isa.RegActStride, uint32(outStride))
			lo.setReg(isa.RegActColOff, uint32(c*isa.MatrixDim))
			lo.emit(isa.Instruction{
				Op: isa.OpActivate, AccAddr: uint16(accBase + c*r),
				UBAddr: out.addr + uint32(s*outStride),
				Len:    uint32(r), Func: uint8(layer),
			})
		}
	}
}

func (lo *lowering) lowerConvLayer(layer int, l nn.Layer, in, out edge) {
	cs := l.Conv
	lo.setReg(isa.RegConvH, uint32(cs.H))
	lo.setReg(isa.RegConvW, uint32(cs.W))
	lo.setReg(isa.RegConvCin, uint32(cs.Cin))
	lo.setReg(isa.RegConvK, uint32(cs.K))
	lo.setReg(isa.RegConvS, uint32(cs.S))
	totalRows := lo.batch * cs.OutH() * cs.OutW()
	lo.lowerMatrixLayer(layer, cs.K*cs.K*cs.Cin, cs.Cout, totalRows, in, out, true, &l)
}

// lowerVectorLayer routes a standalone elementwise layer through the
// activation hardware: UB -> (op with operand) -> requantize -> LUT -> UB.
func (lo *lowering) lowerVectorLayer(layer int, l nn.Layer, in, out edge) {
	lo.setReg(isa.RegVecSrc, in.addr)
	flags := isa.FlagVecSrcUB
	switch l.VOp {
	case nn.VecScale:
		flags |= isa.FlagVecScale
	case nn.VecBias:
		flags |= isa.FlagVecBias
	}
	if l.VOp != nn.VecActivation {
		lo.setReg(isa.RegVecOperand, lo.operandAddr[layer])
		lo.setReg(isa.RegActCols, uint32(in.stride))
	}
	lo.emit(isa.Instruction{
		Op: isa.OpActivate, Flags: flags,
		UBAddr: out.addr, Len: uint32(lo.batch * in.stride), Func: uint8(layer),
	})
}

// lowerPoolLayer emits pooling through the dedicated hardware adjacent to
// the activation unit ("It can also perform the pooling operations needed
// for convolutions using the dedicated hardware on the die"). The spatial
// geometry comes from the most recent convolution's output, so pooling must
// follow a conv layer.
func (lo *lowering) lowerPoolLayer(layer int, l nn.Layer, in, out edge) error {
	var prev *nn.Layer
	for j := layer - 1; j >= 0; j-- {
		if lo.m.Layers[j].Kind == nn.Conv {
			prev = &lo.m.Layers[j]
			break
		}
		if lo.m.Layers[j].Kind == nn.FC {
			break
		}
	}
	if prev == nil {
		return fmt.Errorf("compiler: pool layer %d has no preceding conv layer for geometry", layer)
	}
	lo.setReg(isa.RegConvH, uint32(prev.Conv.OutH()))
	lo.setReg(isa.RegConvW, uint32(prev.Conv.OutW()))
	lo.setReg(isa.RegConvCin, uint32(prev.Conv.Cout))
	lo.setReg(isa.RegVecSrc, in.addr)
	lo.emit(isa.Instruction{
		Op: isa.OpActivate, Flags: isa.FlagVecSrcUB | isa.FlagPool,
		Pool:   uint8(l.PoolWindow),
		UBAddr: out.addr, Len: uint32(lo.batch * in.elems), Func: uint8(layer),
	})
	return nil
}
