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

	"tpusim/internal/isa"
)

// Tile is one 256x256 weight tile: a view of the 64 KiB row-major buffer it
// was loaded from (row indexes the input — contraction — dimension, col the
// output dimension). Weight Memory delivers tiles in the form the array
// consumes, so a tile owns no storage of its own and loading one copies
// nothing: every multiply and every checksum reads the bytes of the buffer
// itself, which nothing may write while the tile is loaded. Every kernel
// multiplies those bytes where they lie; no kernel builds anything at Load.
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

// row returns weight row r of the viewed buffer.
func (t *Tile) row(r int) *[isa.MatrixDim]int8 {
	return (*[isa.MatrixDim]int8)(t.w[r*isa.MatrixDim:])
}

// SWAR kernel geometry: 8 weight bytes per 64-bit word, 32 words per row.
const laneGroups = isa.MatrixDim / 8

const (
	// biasWord flips every int8 sign bit: b ^ 0x80 == b+128 as a uint8, so
	// a weight word XOR biasWord holds the bias-128 weights in [0, 255].
	biasWord = 0x8080808080808080
	// evenBytes extracts bytes 0,2,4,6 of a word into four 16-bit lanes.
	evenBytes = 0x00FF00FF00FF00FF
	// loHalves extracts 16-bit lanes 0 and 2 into two 32-bit lanes.
	loHalves = 0x0000FFFF0000FFFF
)

// Load re-points the tile at b, the 64 KiB row-major layout Weight Memory
// delivers, and drops the checksums latched from the previous contents (stale
// checksums would fail every ABFT check). Nothing is copied — the tile
// aliases b, so b must stay unwritten until the tile is loaded again. The
// tile must not be loaded while an Array is multiplying against it; the
// device loads the matrix unit's non-resident tile, between matmuls.
func (t *Tile) Load(b []int8) error {
	if len(b) != isa.WeightTileBytes {
		return fmt.Errorf("systolic: tile is %d bytes, want %d", len(b), isa.WeightTileBytes)
	}
	t.Unload()
	t.w = (*[isa.WeightTileBytes]int8)(b)
	return nil
}

// Unload drops the view and the checksums latched from it, so the tile keeps
// no buffer reachable. LoadShadow refuses an unloaded tile.
func (t *Tile) Unload() {
	t.w = nil
	t.abft = abft{}
}

// TileFromBytes returns a fresh tile viewing b, the 64 KiB row-major layout
// Weight Memory delivers (see Load for the aliasing contract).
func TileFromBytes(b []int8) (*Tile, error) {
	t := &Tile{}
	if err := t.Load(b); err != nil {
		return nil, err
	}
	return t, nil
}

// Bytes returns the 64 KiB buffer the tile views, in the Weight Memory
// layout (nil before the first Load); callers must not write through it.
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

// HasActive reports whether a weight tile is resident.
func (a *Array) HasActive() bool { return a.active != nil }

// Active returns the resident weight tile (nil when none) — the device's
// integrity layer reads its ABFT checksum columns through this.
func (a *Array) Active() *Tile { return a.active }

// MulRow pushes one 256-wide activation row through the array, producing
// the 256-wide partial-sum row the accumulators receive. The systolic
// wavefront is functionally equivalent to this dot-product-per-column.
func (a *Array) MulRow(in *[isa.MatrixDim]int8) (*[isa.MatrixDim]int32, error) {
	if a.active == nil {
		return nil, fmt.Errorf("systolic: no active weight tile")
	}
	var out [isa.MatrixDim]int32
	for r := 0; r < isa.MatrixDim; r++ {
		v := int32(in[r])
		if v == 0 {
			continue
		}
		w := a.active.row(r)
		for c := 0; c < isa.MatrixDim; c++ {
			out[c] += v * int32(w[c])
		}
	}
	return &out, nil
}

// Multiply pushes B rows (flat, B*256 int8) through the array, returning
// B 256-wide partial sums. It is the functional body of one MatrixMultiply
// instruction against the active tile, bit-identical to calling MulRow row
// by row.
func (a *Array) Multiply(in []int8) ([][isa.MatrixDim]int32, error) {
	if len(in)%isa.MatrixDim != 0 {
		return nil, fmt.Errorf("systolic: input length %d not a multiple of %d", len(in), isa.MatrixDim)
	}
	out := make([][isa.MatrixDim]int32, len(in)/isa.MatrixDim)
	if err := a.MultiplyInto(in, out, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// kernel is one batched kernel body: mulRange computes output rows [lo, hi),
// taking activation rows `rows` at a time.
type kernel struct {
	name     string
	rows     int
	mulRange func(a *Array, in []int8, out [][isa.MatrixDim]int32, lo, hi int)
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

// MultiplyInto is the allocation-free batched kernel behind Multiply: it
// computes the B partial-sum rows for in (flat, B*256 int8) into out
// (length B), overwriting out. workers sets how many goroutines shard the
// batch rows; <= 0 means GOMAXPROCS and 1 runs serially on the caller's
// goroutine. Each output row is produced by exactly one goroutine, and
// int32 sums of int8 products are exact in any order, so results are
// deterministic and bit-identical for every worker count and kernel.
func (a *Array) MultiplyInto(in []int8, out [][isa.MatrixDim]int32, workers int) error {
	if a.active == nil {
		return fmt.Errorf("systolic: no active weight tile")
	}
	if len(in)%isa.MatrixDim != 0 {
		return fmt.Errorf("systolic: input length %d not a multiple of %d", len(in), isa.MatrixDim)
	}
	b := len(in) / isa.MatrixDim
	if len(out) < b {
		return fmt.Errorf("systolic: output has %d rows, need %d", len(out), b)
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
		k.mulRange(a, in, out, 0, b)
		return nil
	}
	var wg sync.WaitGroup
	for lo := 0; lo < b; lo += chunk {
		hi := min(lo+chunk, b)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			k.mulRange(a, in, out, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// mulRangeSWAR computes output rows [lo, hi) of the batched matmul with the
// portable SWAR kernel: one uint64 multiply handles 8 weight columns at once.
//
// The trick is the bias-128 encoding: with w' = w+128 in [0,255] and
// u = |v| in [1,128] for a nonzero activation v,
//
//	v > 0: v*w = u*w'       - 128*u
//	v < 0: v*w = u*(255-w') - 127*u
//
// Per byte, w' is w ^ 0x80 and 255-w' its complement, w ^ 0x7F, so one XOR
// of the eight weight bytes as they lie in the tile — with biasWord (positive
// v) or ^biasWord (negative v), the activation's mask — yields the operand
// bytes in [0,255] either way; the words are loaded little-endian, so every
// byte lands in the lane of its column on any host. The kernel multiplies
// the masked even/odd bytes of the word by u — each 16-bit lane product is
// at most 128*255 = 32640 < 2^15, so two rows' products sum to < 2^16 with
// no cross-lane carry — then widens the four 16-bit lanes into four uint64
// accumulators holding 2x32-bit lanes each. 256 contraction rows add at most
// 256*32640 = 8,355,840 < 2^31 per 32-bit lane, so the widened sums never
// carry and fit int32. The per-row scalar correction corr = sum(128*u |
// 127*u) is subtracted once per column. Every step is exact integer
// arithmetic, so results are bit-identical to MulRow for any worker count
// and any accumulation order; the zero-row skip carries over from the gather.
func (a *Array) mulRangeSWAR(in []int8, out [][isa.MatrixDim]int32, lo, hi int) {
	t := a.active
	// Gather scratch, reused across the range's activation rows: |v|, the
	// weight row as 8-byte groups (group g is columns 8g..8g+7), and the
	// bias-and-complement mask per nonzero row.
	var (
		us  [isa.MatrixDim]uint64
		rws [isa.MatrixDim]*[laneGroups][8]byte
		xms [isa.MatrixDim]uint64
	)
	for i := lo; i < hi; i++ {
		row := (*[isa.MatrixDim]int8)(in[i*isa.MatrixDim:])
		o := &out[i]
		n := 0
		corr := int32(0)
		for r := 0; r < isa.MatrixDim; r++ {
			v := int32(row[r])
			if v == 0 {
				continue
			}
			u := v
			if v > 0 {
				xms[n] = biasWord
				corr += u << 7 // 128*u
			} else {
				u = -v
				xms[n] = ^uint64(biasWord)
				corr += u<<7 - u // 127*u
			}
			us[n] = uint64(u)
			rws[n] = (*[laneGroups][8]byte)(unsafe.Pointer(t.row(r)))
			n++
		}
		if n == 0 {
			*o = [isa.MatrixDim]int32{}
			continue
		}
		if n%2 == 1 { // pair the last row with one times u = 0: it adds nothing
			us[n], rws[n], xms[n] = 0, rws[n-1], 0
			n++
		}
		// acc is the widened accumulator strip: 4 words per 8-column group.
		// acc[4g+0] holds columns 8g+0 (low 32 bits) and 8g+4 (high),
		// acc[4g+1] 8g+1/8g+5, acc[4g+2] 8g+2/8g+6, acc[4g+3] 8g+3/8g+7.
		// At 1 KiB it stays L1-resident while row pairs stream the tile
		// sequentially — rows outer, groups inner, so the 64 KiB of weights
		// are read once per activation row with unit stride instead of 32
		// strided re-walks.
		var acc [4 * laneGroups]uint64
		for k := 0; k < n; k += 2 {
			swarPair(&acc, rws[k], rws[k+1], us[k], us[k+1], xms[k], xms[k+1])
		}
		for g := 0; g < laneGroups; g++ {
			j := g * 4
			a04, a15, a26, a37 := acc[j], acc[j+1], acc[j+2], acc[j+3]
			c := g * 8
			o[c] = int32(uint32(a04)) - corr
			o[c+1] = int32(uint32(a15)) - corr
			o[c+2] = int32(uint32(a26)) - corr
			o[c+3] = int32(uint32(a37)) - corr
			o[c+4] = int32(a04>>32) - corr
			o[c+5] = int32(a15>>32) - corr
			o[c+6] = int32(a26>>32) - corr
			o[c+7] = int32(a37>>32) - corr
		}
	}
}

// swarPair adds weight rows r1 and r2, masked with x1 and x2 and multiplied
// by u1 and u2, into mulRangeSWAR's accumulator strip. A function of its own
// so that the loop keeps its operands in registers.
func swarPair(acc *[4 * laneGroups]uint64, r1, r2 *[laneGroups][8]byte, u1, u2, x1, x2 uint64) {
	for g := 0; g < laneGroups; g++ {
		w1 := binary.LittleEndian.Uint64(r1[g][:]) ^ x1
		w2 := binary.LittleEndian.Uint64(r2[g][:]) ^ x2
		se := (w1&evenBytes)*u1 + (w2&evenBytes)*u2
		so := (w1>>8&evenBytes)*u1 + (w2>>8&evenBytes)*u2
		j := g * 4
		acc[j] += se & loHalves
		acc[j+1] += so & loHalves
		acc[j+2] += se >> 16 & loHalves
		acc[j+3] += so >> 16 & loHalves
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
