package tpu

import (
	"fmt"

	"tpusim/internal/isa"
)

// matmulScratch is the device's reusable flat staging area for one
// MatrixMultiply: all B gathered input rows, and — on the staged path only —
// all B partial-sum rows, so the hot loop performs no per-instruction
// allocation. A device runs one program at a time, so it owns one.
type matmulScratch struct {
	in  []int8
	out [][isa.MatrixDim]int32
}

// gather returns the input region for rows input rows, zeroed unless the
// gather overwrites every byte (gathers rely on zero padding beyond the
// valid elements).
func (s *matmulScratch) gather(rows int, full bool) []int8 {
	n := rows * isa.MatrixDim
	if cap(s.in) < n {
		s.in = make([]int8, n)
	} else {
		s.in = s.in[:n]
		if !full {
			clear(s.in)
		}
	}
	return s.in
}

// stage returns rows partial-sum rows for the staged path.
func (s *matmulScratch) stage(rows int) [][isa.MatrixDim]int32 {
	if cap(s.out) < rows {
		s.out = make([][isa.MatrixDim]int32, rows)
	}
	s.out = s.out[:rows]
	return s.out
}

// matmulData executes the functional side of a MatrixMultiply: gather all B
// input rows from the Unified Buffer (directly for FC, via the convolution
// gather for Convolve) into the device's flat buffer and push the whole
// batch through the blocked systolic kernel — sharded across
// cfg.Parallelism goroutines — into the accumulators.
//
// The array writes its partial sums straight into the accumulator registers
// when nothing needs to see them on the way: the device runs no integrity
// checks, no processing-element upset is queued, and, for an accumulating
// instruction, every target register is bounded below 2^31-2^22 so that the
// array's add is the saturating one (Accumulators.Direct). Otherwise the
// sums are staged — scratch rows, the PE fault seam, the ABFT check — and
// stored with Accumulators.StoreRows. Both paths leave the same registers.
//
// On that direct path an FC multiply whose rows use the array's full depth
// gathers nothing either: each input row is 256 bytes of the Unified Buffer
// as it lies, so the array reads the rows in place, RegMatStride apart. A
// convolution, a partial-depth row (zero-padded past usedRows) and the
// staged path still gather into the flat buffer.
func (d *Device) matmulData(in *isa.Instruction, rows, usedRows int) error {
	accumulate := in.Flags&isa.FlagAccumulate != 0
	idx := int(in.AccAddr)
	if idx+rows > isa.AccumulatorCount {
		return fmt.Errorf("matmul writes accumulators %d..%d beyond %d", in.AccAddr, idx+rows, isa.AccumulatorCount)
	}
	// Fault seam: UB upsets land just before the first matmul consumes the
	// buffer, mapped into the written extent so they hit bytes in use. The
	// extent is read once: a flip advances it.
	if !d.ubFlipped && rows > 0 {
		d.ubFlipped = true
		hw := d.ub.HighWater()
		if hw == 0 {
			hw = d.ub.Size()
		}
		d.applyFlips(FlipUB, func(f Flip) {
			d.ub.FlipBit(uint32(f.Addr%uint64(hw)), f.Bit)
		})
	}
	// Check the input span's CRC rows before reading it: corruption caught
	// here never reaches the array.
	if err := d.verifyMatmulInput(in, rows, usedRows); err != nil {
		return err
	}

	conv := in.Flags&isa.FlagConvolve != 0
	direct := d.cfg.Integrity == IntegrityOff && !d.flipQueued(FlipPE) && d.acc.Direct(idx, rows, accumulate)
	src, stride, err := d.matmulInput(in, rows, usedRows, conv, direct)
	if err != nil {
		return err
	}
	if direct {
		for done := 0; done < rows; {
			regs := d.acc.Rows(idx+done, rows-done, accumulate)
			if err := d.arr.MultiplyStrided(src[done*stride:], stride, regs, d.cfg.parallelism(), accumulate); err != nil {
				return err
			}
			done += len(regs)
		}
	} else if err := d.matmulStaged(idx, rows, accumulate); err != nil {
		return err
	}
	// Fault seam: accumulator upsets land in freshly written registers.
	d.applyFlips(FlipAcc, func(f Flip) {
		i := idx + int(f.Addr%uint64(rows))
		off := int((f.Addr / uint64(rows)) % uint64(isa.MatrixDim*4))
		d.acc.FlipBit(i, off, f.Bit)
	})
	return nil
}

// matmulInput returns a MatrixMultiply's rows input rows and the stride
// between them: the Unified Buffer's own bytes for a full-depth FC multiply
// on the direct path (inPlace), the device's flat buffer, 256 bytes a row,
// gathered from the buffer otherwise.
func (d *Device) matmulInput(in *isa.Instruction, rows, usedRows int, conv, inPlace bool) ([]int8, int, error) {
	full := !conv && usedRows == isa.MatrixDim
	stride := int(d.regs[isa.RegMatStride])
	if stride == 0 {
		stride = isa.MatrixDim
	}
	base := in.UBAddr + d.regs[isa.RegMatSrcOff]
	if full && inPlace && rows > 0 {
		src, err := d.ub.View(base, (rows-1)*stride+isa.MatrixDim)
		return src, stride, err
	}
	gathered := d.mm.gather(rows, full)
	for i := 0; i < rows; i++ {
		row := gathered[i*isa.MatrixDim : (i+1)*isa.MatrixDim]
		if conv {
			if err := d.convGather(in.UBAddr, i, usedRows, row); err != nil {
				return nil, 0, err
			}
			continue
		}
		src, err := d.ub.View(base+uint32(i*stride), usedRows)
		if err != nil {
			return nil, 0, err
		}
		copy(row, src)
	}
	return gathered, isa.MatrixDim, nil
}

// matmulStaged is the staged half of matmulData: the partial sums of the
// gathered rows land in scratch, where the PE fault seam and the ABFT check
// see them, and are then stored into registers [idx, idx+rows).
func (d *Device) matmulStaged(idx, rows int, accumulate bool) error {
	s := &d.mm
	out := s.stage(rows)
	if err := d.arr.MultiplyInto(s.in, out, d.cfg.parallelism()); err != nil {
		return err
	}
	// Fault seam: PE upsets corrupt a partial sum between the array and the
	// accumulators — exactly what the ABFT checksum columns guard.
	upset := false
	d.applyFlips(FlipPE, func(f Flip) {
		r := int(f.Addr % uint64(rows))
		c := int((f.Addr / uint64(rows)) % uint64(isa.MatrixDim))
		out[r][c] ^= 1 << (f.Bit % 32)
		upset = true
	})
	if err := d.verifyMatmulABFT(s, rows); err != nil {
		return err
	}
	if accumulate {
		// Read-modify-write: parity is checked on the read half, the point
		// real parity SRAM catches a stored upset.
		if err := d.verifyAcc(idx, rows); err != nil {
			return err
		}
	}
	if err := d.acc.StoreRows(idx, out, accumulate); err != nil {
		return err
	}
	if upset {
		// Unless the ABFT check repaired it, the upset is in the registers
		// now, of any magnitude.
		d.acc.Unbound(idx, rows)
	}
	return nil
}

// verifyMatmulInput CRC-checks the UB span a MatrixMultiply is about to
// gather. The FC path covers the exact strided window; the convolution
// gather's addresses scatter across the whole tensor, so it checks the
// written extent.
func (d *Device) verifyMatmulInput(in *isa.Instruction, rows, usedRows int) error {
	if d.cfg.Integrity == IntegrityOff || rows == 0 {
		return nil
	}
	if in.Flags&isa.FlagConvolve != 0 {
		return d.verifyUB(0, d.ub.HighWater(), "unified-buffer")
	}
	stride := d.regs[isa.RegMatStride]
	if stride == 0 {
		stride = isa.MatrixDim
	}
	lo := in.UBAddr + d.regs[isa.RegMatSrcOff]
	n := int(stride)*(rows-1) + usedRows
	return d.verifyUB(lo, n, "unified-buffer")
}

// convGather builds one 256-wide systolic input row for a convolution: the
// slice [rowTile*256, rowTile*256+usedRows) of the im2col patch vector for
// output position (chunkStart + row), gathered from the [B, H, W, Cin]
// input tensor at base with same-style zero padding. This is the on-chip
// address generation that lets the matrix unit "perform either a matrix
// multiply or a convolution". out must be zeroed (len >= usedRows); input
// channels are contiguous in both the patch vector and the source tensor,
// so each (ky, kx) tap is copied as one run instead of per element.
func (d *Device) convGather(base uint32, row, usedRows int, out []int8) error {
	h := int(d.regs[isa.RegConvH])
	w := int(d.regs[isa.RegConvW])
	cin := int(d.regs[isa.RegConvCin])
	k := int(d.regs[isa.RegConvK])
	s := int(d.regs[isa.RegConvS])
	if h <= 0 || w <= 0 || cin <= 0 || k <= 0 || s <= 0 {
		return fmt.Errorf("convolve with unset geometry registers (H=%d W=%d Cin=%d K=%d S=%d)", h, w, cin, k, s)
	}
	rowTile := int(d.regs[isa.RegConvRowTile])
	chunkStart := int(d.regs[isa.RegConvChunkStart])
	oh := (h + s - 1) / s
	ow := (w + s - 1) / s
	pad := (k - 1) / 2

	flat := chunkStart + row
	img := flat / (oh * ow)
	rem := flat % (oh * ow)
	oy := rem / ow
	ox := rem % ow

	for j := 0; j < usedRows; {
		patchIdx := rowTile*isa.MatrixDim + j
		ky := patchIdx / (k * cin)
		kx := (patchIdx / cin) % k
		ci := patchIdx % cin
		if ky >= k {
			break // beyond the patch: zero padding rows of the edge tile
		}
		// Channels ci..cin-1 of tap (ky, kx) are contiguous in the patch
		// vector and in the [B, H, W, Cin] tensor: one copy covers the run.
		run := min(cin-ci, usedRows-j)
		iy := oy*s + ky - pad
		ix := ox*s + kx - pad
		if iy < 0 || iy >= h || ix < 0 || ix >= w {
			j += run // spatial zero padding: out is pre-zeroed
			continue
		}
		addr := base + uint32(((img*h+iy)*w+ix)*cin+ci)
		src, err := d.ub.View(addr, run)
		if err != nil {
			return err
		}
		copy(out[j:j+run], src)
		j += run
	}
	return nil
}

// activateData executes the functional side of an Activate: requantize and
// apply the nonlinearity table, moving data from the accumulators (matmul
// epilogue) or from the Unified Buffer (standalone vector layers) into the
// Unified Buffer.
func (d *Device) activateData(in *isa.Instruction, fromUB bool) error {
	if int(in.Func) >= len(d.prog.ActTable) {
		return fmt.Errorf("activate func %d outside ActTable (%d entries)", in.Func, len(d.prog.ActTable))
	}
	meta := d.prog.ActTable[in.Func]
	if meta.Lut == nil {
		return fmt.Errorf("activate func %d has no lookup table", in.Func)
	}

	if fromUB {
		return d.activateVector(in, meta)
	}

	rows := int(in.Len)
	cols := int(d.regs[isa.RegActCols])
	if cols == 0 || cols > isa.MatrixDim {
		cols = isa.MatrixDim
	}
	stride := d.regs[isa.RegActStride]
	if stride == 0 {
		stride = uint32(cols)
	}
	colOff := d.regs[isa.RegActColOff]
	// The Activate drain is the accumulators' read port: check parity over
	// the registers about to requantize.
	if err := d.verifyAcc(int(in.AccAddr), rows); err != nil {
		return err
	}
	outRow := d.act.growOut(cols)
	for i := 0; i < rows; i++ {
		acc, err := d.acc.Load(int(in.AccAddr) + i)
		if err != nil {
			return err
		}
		meta.Lut.DrainRow(outRow, acc[:cols], meta.SrcScale, meta.Pre)
		if err := d.ub.Write(in.UBAddr+uint32(i)*stride+colOff, outRow); err != nil {
			return err
		}
	}
	return nil
}

// actScratch is the device's staging area for the activation unit: one
// output row (or vector) and one pre-activation accumulator vector, so the
// drain performs no per-instruction allocation.
type actScratch struct {
	out []int8
	acc []int32
}

func (s *actScratch) growOut(n int) []int8 {
	if cap(s.out) < n {
		s.out = make([]int8, n)
	}
	s.out = s.out[:n]
	return s.out
}

func (s *actScratch) growAcc(n int) []int32 {
	if cap(s.acc) < n {
		s.acc = make([]int32, n)
	}
	s.acc = s.acc[:n]
	return s.acc
}

// activateVector implements the standalone elementwise layers routed
// through the activation hardware: out = LUT(requant(src op operand)), or
// spatial max pooling when FlagPool is set.
func (d *Device) activateVector(in *isa.Instruction, meta isa.ActMeta) error {
	if in.Flags&isa.FlagPool != 0 {
		return d.activatePool(in)
	}
	n := int(in.Len)
	src, err := d.ub.View(d.regs[isa.RegVecSrc], n)
	if err != nil {
		return err
	}
	width := int(d.regs[isa.RegActCols])
	var operand []int8
	if in.Flags&(isa.FlagVecScale|isa.FlagVecBias) != 0 {
		if width <= 0 {
			return fmt.Errorf("vector activate needs operand width in RegActCols")
		}
		operand, err = d.ub.View(d.regs[isa.RegVecOperand], width)
		if err != nil {
			return err
		}
	}
	out := d.act.growOut(n)
	acc := d.act.growAcc(n)
	if operand == nil {
		for i, v := range src {
			acc[i] = int32(v)
		}
	} else {
		// The operand repeats every width elements: walk src a width at a
		// time against the whole operand.
		scale := in.Flags&isa.FlagVecScale != 0
		for lo := 0; lo < n; lo += width {
			a := acc[lo:min(lo+width, n)]
			x, op := src[lo:lo+len(a)], operand[:len(a)]
			if scale {
				for i := range a {
					a[i] = int32(x[i]) * int32(op[i])
				}
			} else {
				for i := range a {
					a[i] = int32(x[i]) + int32(op[i]) // two int8s: never saturates
				}
			}
		}
	}
	meta.Lut.DrainRow(out, acc, meta.SrcScale, meta.Pre)
	return d.ub.Write(in.UBAddr, out)
}

// activatePool performs max pooling over a raw [B, H, W, C] buffer using
// the dedicated pooling hardware next to the activation unit. Len is the
// total input element count; geometry comes from the convolution registers.
func (d *Device) activatePool(in *isa.Instruction) error {
	h := int(d.regs[isa.RegConvH])
	w := int(d.regs[isa.RegConvW])
	c := int(d.regs[isa.RegConvCin])
	p := int(in.Pool)
	if h <= 0 || w <= 0 || c <= 0 || p <= 1 {
		return fmt.Errorf("pool with unset geometry (H=%d W=%d C=%d P=%d)", h, w, c, p)
	}
	if h%p != 0 || w%p != 0 {
		return fmt.Errorf("pool window %d does not tile %dx%d", p, h, w)
	}
	per := h * w * c
	n := int(in.Len)
	if n%per != 0 {
		return fmt.Errorf("pool input %d elems not a multiple of %d", n, per)
	}
	batch := n / per
	src, err := d.ub.View(d.regs[isa.RegVecSrc], n)
	if err != nil {
		return err
	}
	oh, ow := h/p, w/p
	out := d.act.growOut(batch * oh * ow * c)
	for img := 0; img < batch; img++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				for ch := 0; ch < c; ch++ {
					best := src[((img*h+oy*p)*w+ox*p)*c+ch]
					for dy := 0; dy < p; dy++ {
						for dx := 0; dx < p; dx++ {
							v := src[((img*h+oy*p+dy)*w+ox*p+dx)*c+ch]
							if v > best {
								best = v
							}
						}
					}
					out[((img*oh+oy)*ow+ox)*c+ch] = best
				}
			}
		}
	}
	return d.ub.Write(in.UBAddr, out)
}
