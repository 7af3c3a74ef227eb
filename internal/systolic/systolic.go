// Package systolic implements the TPU's 256x256 matrix multiply unit as a
// weight-stationary systolic array (Figure 4). Weights are preloaded from
// the top into a tile; activations flow in from the left; a 256-element
// multiply-accumulate moves through the array as a diagonal wavefront and
// emerges as one 256-wide 32-bit partial sum per clock cycle.
//
// "From a correctness perspective, software is unaware of the systolic
// nature of the matrix unit, but for performance, it does worry about the
// latency of the unit." Correspondingly the package exposes a functional
// result identical to a plain matmul plus the cycle costs the timing
// simulator charges: B pipelined cycles per B-row operation, a 256-cycle
// tile shift, and the wavefront fill latency.
package systolic

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"tpusim/internal/fixed"
	"tpusim/internal/isa"
)

// Tile is one 256x256 weight tile: a view of the 64 KiB buffer it was loaded
// from, in the matrix unit's order (isa.WeightOffset; row indexes the input —
// contraction — dimension, col the output dimension). Weight Memory delivers
// tiles in the form the array consumes, so a tile owns no storage of its own
// and loading one copies nothing: every multiply and every checksum reads the
// bytes of the buffer itself, which nothing may write while the tile is
// loaded. Every kernel multiplies those bytes where they lie; no kernel
// builds anything at Load.
type Tile struct {
	w *[isa.WeightTileBytes]int8

	// abft lazily caches the tile's ABFT checksum encoding (see abft.go);
	// it is latched when the tile first serves an integrity-checked matmul,
	// the way the physical checksum columns would be computed during the
	// shift into the array. It assumes the bytes do not change afterwards:
	// fault injection corrupts weight DRAM before the tile is fetched, or
	// datapath scratch after, never a loaded tile.
	abft abft
}

// at returns weight (r, c) of the viewed buffer.
func (t *Tile) at(r, c int) int8 { return t.w[isa.WeightOffset(r, c)] }

// SWAR kernel geometry: a quad row's 256 columns as 128 little-endian words
// of two columns' four weights each.
const quadWords = isa.WeightQuadBytes / 8

const (
	// evenBytes extracts bytes 0,2,4,6 of a word into four 16-bit lanes.
	evenBytes = 0x00FF00FF00FF00FF
	// loHalves extracts 16-bit lanes 0 and 2 into two 32-bit lanes.
	loHalves = 0x0000FFFF0000FFFF
)

// Load re-points the tile at b, the 64 KiB of one tile in the matrix unit's
// order that Weight Memory delivers, and drops the checksums latched from the
// previous contents (stale checksums would fail every ABFT check). Nothing is
// copied — the tile aliases b, so b must stay unwritten until the tile is
// loaded again. The tile must not be loaded while an Array is multiplying
// against it; the device re-points its one tile between matmuls.
func (t *Tile) Load(b []int8) error {
	if len(b) != isa.WeightTileBytes {
		return fmt.Errorf("systolic: tile is %d bytes, want %d", len(b), isa.WeightTileBytes)
	}
	t.Unload()
	t.w = (*[isa.WeightTileBytes]int8)(b)
	return nil
}

// Unload drops the view and the checksums latched from it, so the tile keeps
// no buffer reachable. LoadShadow refuses an unloaded tile, and an array
// whose active tile is unloaded has no active tile.
func (t *Tile) Unload() {
	t.w = nil
	t.abft = abft{}
}

// TileFromBytes returns a fresh tile viewing b, 64 KiB in the matrix unit's
// order (see Load for the aliasing contract).
func TileFromBytes(b []int8) (*Tile, error) {
	t := &Tile{}
	if err := t.Load(b); err != nil {
		return nil, err
	}
	return t, nil
}

// Bytes returns the 64 KiB buffer the tile views, in the matrix unit's order
// (nil before the first Load); callers must not write through it.
func (t *Tile) Bytes() []int8 {
	if t.w == nil {
		return nil
	}
	return t.w[:]
}

// Array is the matrix unit: an active tile computing and a shadow tile
// being shifted in behind it ("The matrix unit holds one 64 KiB tile of
// weights plus one for double-buffering, to hide the 256 cycles it takes to
// shift a tile in").
type Array struct {
	active *Tile
	shadow *Tile
}

// New returns an array with no weights loaded.
func New() *Array { return &Array{} }

// LoadShadow begins shifting a tile into the double buffer.
func (a *Array) LoadShadow(t *Tile) error {
	if t == nil || t.w == nil {
		return fmt.Errorf("systolic: nil or unloaded tile")
	}
	if a.shadow != nil {
		return fmt.Errorf("systolic: shadow buffer already occupied")
	}
	a.shadow = t
	return nil
}

// Commit completes the shift: the shadow tile becomes active. The timing
// simulator charges ShiftCycles for this unless it overlapped with prior
// computation.
func (a *Array) Commit() error {
	if a.shadow == nil {
		return fmt.Errorf("systolic: no shadow tile to commit")
	}
	a.active = a.shadow
	a.shadow = nil
	return nil
}

// Active returns the resident weight tile (nil when none, or when it has
// been unloaded since it was committed) — the device's integrity layer reads
// its ABFT checksum columns through this.
func (a *Array) Active() *Tile {
	if a.active == nil || a.active.w == nil {
		return nil
	}
	return a.active
}

// MulRow pushes one 256-wide activation row through the array, producing
// the 256-wide partial-sum row the accumulators receive. The systolic
// wavefront is functionally equivalent to this dot-product-per-column.
func (a *Array) MulRow(in *[isa.MatrixDim]int8) (*[isa.MatrixDim]int32, error) {
	t := a.Active()
	if t == nil {
		return nil, fmt.Errorf("systolic: no active weight tile")
	}
	var out [isa.MatrixDim]int32
	for r := 0; r < isa.MatrixDim; r++ {
		v := int32(in[r])
		if v == 0 {
			continue
		}
		for c := 0; c < isa.MatrixDim; c++ {
			out[c] += v * int32(t.at(r, c))
		}
	}
	return &out, nil
}

// kernel is one batched kernel body: mulRange computes output rows [lo, hi),
// taking activation rows `rows` at a time — activation row i is the 256
// bytes at in[i*stride:] — and stores them into out, or, with add, adds them
// to what out holds.
type kernel struct {
	name     string
	rows     int
	mulRange func(a *Array, in []int8, stride int, out [][isa.MatrixDim]int32, lo, hi int, add bool)
}

var swar = kernel{name: "swar", rows: 1, mulRange: (*Array).mulRangeSWAR}

// kernels lists the batched kernels this host can run, fastest first, chosen
// once from what package cpu reports: the assembly kernels the CPU has the
// instructions and the OS the register state for, then the portable SWAR
// kernel. MultiplyInto runs running, which is the first of them except while
// a test has moved it with runUnder; nothing else writes it.
var (
	kernels = hostKernels()
	running = kernels[0]
)

// runUnder makes MultiplyInto run kernels[i] and returns its name; ok is
// false, and nothing changes, past the end of the list. It exists so that
// tests exercise every kernel the host can run, not only the fastest:
// in-package tests call it directly, other packages' tests go through
// systolic/kerneltest, which reaches it by linkname.
func runUnder(i int) (name string, ok bool) {
	if i >= len(kernels) {
		return "", false
	}
	running = kernels[i]
	return running.name, true
}

// Kernel names the batched kernel in use — "amx", "avx512vnni", "avx2" or
// "swar" — for benchmark lines and bug reports.
func Kernel() string { return running.name }

// MultiplyInto is the allocation-free batched kernel: it
// computes the B partial-sum rows for in (flat, B*256 int8) into out
// (length B), overwriting out. workers sets how many goroutines shard the
// batch rows; <= 0 means GOMAXPROCS and 1 runs serially on the caller's
// goroutine. Each output row is produced by exactly one goroutine, and
// int32 sums of int8 products are exact in any order, so results are
// deterministic and bit-identical for every worker count and kernel.
func (a *Array) MultiplyInto(in []int8, out [][isa.MatrixDim]int32, workers int) error {
	if len(in)%isa.MatrixDim != 0 {
		return fmt.Errorf("systolic: input length %d not a multiple of %d", len(in), isa.MatrixDim)
	}
	b := len(in) / isa.MatrixDim
	if len(out) < b {
		return fmt.Errorf("systolic: output has %d rows, need %d", len(out), b)
	}
	return a.MultiplyStrided(in, isa.MatrixDim, out[:b], workers, false)
}

// MultiplyStrided is MultiplyInto over len(out) activation rows that lie
// stride bytes apart — row i is the 256 bytes at in[i*stride:], so the
// device hands the array a batch where it lies in the Unified Buffer, with
// no gather — and, with add, adds the partial-sum rows into out instead of
// overwriting it: out[i][c] += sum over r of in[i][r]*w[r][c]. One tile adds
// at most 256*2^14 = 2^22 in magnitude to a lane, and the caller keeps every
// lane of out below 2^31-2^22 in magnitude, so no sum leaves int32's range
// and the add is exact — the same as fixed.SatAdd32's. The amx rung adds on
// the tiles themselves, which load their accumulators from out; the other
// rungs, and the rows amx leaves to the VNNI kernel, compute a group of rows
// into a stack scratch and add it with fixed.SatAddRow.
func (a *Array) MultiplyStrided(in []int8, stride int, out [][isa.MatrixDim]int32, workers int, add bool) error {
	if a.Active() == nil {
		return fmt.Errorf("systolic: no active weight tile")
	}
	b := len(out)
	if stride < 1 {
		return fmt.Errorf("systolic: row stride %d", stride)
	}
	if b > 0 && len(in) < (b-1)*stride+isa.MatrixDim {
		return fmt.Errorf("systolic: input has %d bytes, %d rows %d apart need %d", len(in), b, stride, (b-1)*stride+isa.MatrixDim)
	}
	k := running
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Shard the batch rows into contiguous per-worker chunks, each a whole
	// number of the kernel's row groups so that only the last chunk pads a
	// short group. Chunks never overlap, so no synchronization beyond the
	// WaitGroup is needed.
	chunk := (b + workers - 1) / workers
	chunk = (chunk + k.rows - 1) / k.rows * k.rows
	if chunk >= b {
		k.mulRange(a, in, stride, out, 0, b, add)
		return nil
	}
	var wg sync.WaitGroup
	for lo := 0; lo < b; lo += chunk {
		hi := min(lo+chunk, b)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			k.mulRange(a, in, stride, out, lo, hi, add)
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// mulRangeSWAR computes output rows [lo, hi) of the batched matmul with the
// portable SWAR kernel: one uint64 multiply sums two contraction rows of two
// weight columns at once.
//
// The trick is the bias-128 encoding: with w' = w+128 in [0,255] and
// u = |v| in [1,128] for a nonzero activation v,
//
//	v > 0: v*w = u*w'       - 128*u
//	v < 0: v*w = u*(255-w') - 127*u
//
// Per byte, w' is w ^ 0x80 and 255-w' its complement, w ^ 0x7F. A quad row of
// the tile is quadWords words, word p holding columns 2p and 2p+1, each as
// its four weights in row order (isa.WeightOffset). The words are loaded
// little-endian, so byte 4k+i — column 2p+k, row i of the quad — lands at bits
// 8(4k+i) on any host, and one XOR with the quad's mask (byte i of each half
// 0x80 or 0x7F as activation i is positive or negative) yields the operand
// bytes in [0,255]. The even bytes, rows 0 and 2 of both columns, then sit in
// four 16-bit lanes e0..e3, and their product with u2 + u0<<16 holds
//
//	lane 0: u2*e0   lane 1: u0*e0+u2*e1   lane 2: u0*e1+u2*e2   lane 3: u0*e2+u2*e3
//
// (u0*e3 leaves the word): lane 1 is column 2p's sum over rows 0 and 2, lane
// 3 column 2p+1's. No lane exceeds 2*128*255 = 65280 < 2^16, so none carries
// into the next, and (product >> 16) & loHalves moves the two sums into two
// 32-bit lanes. The odd bytes times u3 + u1<<16 give rows 1 and 3 the same
// way. A 32-bit lane gains at most 4*128*255 = 130560 per quad, so 64 quads
// sum to at most 8,355,840 < 2^31: the accumulator words never carry across
// lanes and each lane fits int32. The per-row scalar correction corr =
// sum(128*u | 127*u) is subtracted once per column. Every step is exact
// integer arithmetic, so results are bit-identical to MulRow for any worker
// count and any accumulation order. A quad whose four activations are zero is
// skipped; a zero activation inside a quad has u = 0 and adds nothing.
// With add, each row is computed into sum and added to its output row.
func (a *Array) mulRangeSWAR(in []int8, stride int, out [][isa.MatrixDim]int32, lo, hi int, add bool) {
	t := a.active
	// Gather scratch, reused across the range's activation rows, one entry per
	// nonzero quad: its quad row of the tile, the multipliers of its even and
	// odd rows, and its bias-and-complement mask.
	var (
		qws [isa.MatrixDim / 4]*[quadWords][8]byte
		m02 [isa.MatrixDim / 4]uint64
		m13 [isa.MatrixDim / 4]uint64
		xms [isa.MatrixDim / 4]uint64
		sum [isa.MatrixDim]int32
	)
	for i := lo; i < hi; i++ {
		row := (*[isa.MatrixDim]int8)(in[i*stride:])
		o := &out[i]
		if add {
			o = &sum
		}
		n := 0
		corr := int32(0)
		for r := 0; r < isa.MatrixDim; r += 4 {
			var us [4]uint64
			var xm uint64
			for k := range us {
				v := int32(row[r+k])
				if v == 0 {
					continue
				}
				u, x := v, uint64(0x80)
				if v > 0 {
					corr += u << 7 // 128*u
				} else {
					u, x = -v, 0x7F
					corr += u<<7 - u // 127*u
				}
				us[k] = uint64(u)
				xm |= x << (8 * k)
			}
			if xm == 0 {
				continue
			}
			qws[n] = (*[quadWords][8]byte)(unsafe.Pointer(&t.w[isa.WeightOffset(r, 0)]))
			m02[n] = us[2] | us[0]<<16
			m13[n] = us[3] | us[1]<<16
			xms[n] = xm | xm<<32
			n++
		}
		if n == 0 {
			if !add {
				*o = [isa.MatrixDim]int32{}
			}
			continue
		}
		// acc is the widened accumulator strip, word p holding column 2p in
		// its low 32 bits and 2p+1 in its high. At 1 KiB it stays L1-resident
		// while the quads stream the tile sequentially, so the 64 KiB of
		// weights are read once per activation row with unit stride.
		var acc [quadWords]uint64
		if n%2 == 1 { // pair the last quad with one of zero multipliers: it adds nothing
			qws[n], m02[n], m13[n], xms[n] = qws[n-1], 0, 0, 0
			n++
		}
		for k := 0; k < n; k += 2 {
			swarQuads(&acc, qws[k], qws[k+1], m02[k], m02[k+1], m13[k], m13[k+1], xms[k], xms[k+1])
		}
		for p, s := range acc {
			o[2*p] = int32(uint32(s)) - corr
			o[2*p+1] = int32(s>>32) - corr
		}
		if add {
			fixed.SatAddRow(out[i][:], sum[:])
		}
	}
}

// swarQuads adds quad rows q1 and q2 of the tile, masked with x1 and x2 and
// multiplied by their rows' multipliers (m02: rows 0 and 2, m13: rows 1 and
// 3), into mulRangeSWAR's accumulator strip. A function of its own so that
// the loop keeps its operands in registers.
func swarQuads(acc *[quadWords]uint64, q1, q2 *[quadWords][8]byte, e1, e2, o1, o2, x1, x2 uint64) {
	for p := range acc {
		w1 := binary.LittleEndian.Uint64(q1[p][:]) ^ x1
		w2 := binary.LittleEndian.Uint64(q2[p][:]) ^ x2
		s1 := ((w1&evenBytes)*e1)>>16&loHalves + ((w1>>8&evenBytes)*o1)>>16&loHalves
		s2 := ((w2&evenBytes)*e2)>>16&loHalves + ((w2>>8&evenBytes)*o2)>>16&loHalves
		acc[p] += s1 + s2
	}
}

// SpeedMode is the precision-dependent throughput of the MACs.
type SpeedMode int

const (
	// Full is 8-bit weights and activations: one row per cycle.
	Full SpeedMode = 1
	// Half is a mix of 8- and 16-bit operands: "the Matrix Unit computes
	// at half-speed".
	Half SpeedMode = 2
	// Quarter is 16-bit weights and activations.
	Quarter SpeedMode = 4
)

// ModeFor maps instruction precision flags to a speed mode.
func ModeFor(flags uint16) SpeedMode {
	w16 := flags&isa.FlagWeights16 != 0
	a16 := flags&isa.FlagActs16 != 0
	switch {
	case w16 && a16:
		return Quarter
	case w16 || a16:
		return Half
	default:
		return Full
	}
}

// ComputeCycles returns the pipelined cycle cost of pushing b rows through
// the array: "A matrix operation takes a variable-sized B*256 input ...
// taking B pipelined cycles to complete."
func ComputeCycles(b int, mode SpeedMode) int64 {
	return int64(b) * int64(mode)
}

// ShiftCycles is the cost of shifting one weight tile into the array.
func ShiftCycles() int64 { return isa.MatrixDim }

// FillLatency is the wavefront fill/drain latency: a result is not visible
// until the diagonal wave crosses the array (2*256-1 stages). It matters
// for RAW hazards between a MatrixMultiply and a dependent Activate.
func FillLatency() int64 { return 2*isa.MatrixDim - 1 }

// Utilization reports the fraction of the 64K MACs doing useful work for an
// operand using rows of the contraction dimension and cols of the output
// dimension — Table 3's "useful MACs" analysis. Shallow feature depths in
// CNN1 leave about half the array idle.
func Utilization(rows, cols int) float64 {
	if rows <= 0 || cols <= 0 {
		return 0
	}
	if rows > isa.MatrixDim {
		rows = isa.MatrixDim
	}
	if cols > isa.MatrixDim {
		cols = isa.MatrixDim
	}
	return float64(rows*cols) / float64(isa.MatrixDim*isa.MatrixDim)
}
