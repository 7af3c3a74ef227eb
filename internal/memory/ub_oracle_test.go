package memory

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tpusim/internal/isa"
)

// eagerUB is the reference the on-demand UnifiedBuffer is tested against:
// the whole 24 MiB allocated and CRC-seeded up front, every operation the
// obvious one over the full array. It exists only here.
type eagerUB struct {
	data      []int8
	guard     *Sidecar
	highWater int
}

func newEagerUB(guarded bool) *eagerUB {
	e := &eagerUB{data: make([]int8, isa.UnifiedBufferBytes)}
	if guarded {
		g, err := NewSidecar("unified-buffer", len(e.data), ubGuardBlock)
		if err != nil {
			panic(err)
		}
		g.Seed(e.data)
		e.guard = g
	}
	return e
}

func (e *eagerUB) Reset() {
	clear(e.data[:e.highWater])
	if e.guard != nil {
		e.guard.Update(e.data, 0, e.highWater)
	}
	e.highWater = 0
}

func (e *eagerUB) Write(addr uint32, src []int8) error {
	if int(addr)+len(src) > len(e.data) {
		return fmt.Errorf("memory: UB write %#x+%d overruns %d-byte buffer", addr, len(src), len(e.data))
	}
	copy(e.data[addr:], src)
	e.highWater = max(e.highWater, int(addr)+len(src))
	if e.guard != nil {
		e.guard.Update(e.data, int(addr), len(src))
	}
	return nil
}

// Read serves both Read and View: the oracle has nothing to alias.
func (e *eagerUB) Read(op string, addr uint32, n int) ([]int8, error) {
	if n < 0 || int(addr)+n > len(e.data) {
		return nil, fmt.Errorf("memory: UB %s %#x+%d overruns %d-byte buffer", op, addr, n, len(e.data))
	}
	return append([]int8(nil), e.data[addr:int(addr)+n]...), nil
}

func (e *eagerUB) FlipBit(addr uint32, bit uint8) {
	if int(addr) >= len(e.data) {
		return
	}
	e.data[addr] ^= 1 << (bit % 8)
	e.highWater = max(e.highWater, int(addr)+1)
}

func (e *eagerUB) VerifyGuard(addr uint32, n int) []int {
	if e.guard == nil {
		return nil
	}
	return e.guard.VerifyRange(e.data, int(addr), n)
}

func (e *eagerUB) ResyncGuard(addr uint32, n int) {
	if e.guard == nil {
		return
	}
	lo, hi := e.guard.blockRange(int(addr), n)
	for b := lo; b < hi; b++ {
		e.guard.Resync(e.data, b)
	}
}

// oracleSpan draws an access [addr, addr+n): mostly near the bottom of the
// buffer, where programs live, but also beyond any written prefix — up to
// far, which the caller raises as the sequence goes on so the backed prefix
// keeps being outrun — overrunning 24 MiB, and, once top is set, ending
// exactly at it.
func oracleSpan(rng *rand.Rand, far int, top bool) (addr uint32, n int) {
	n = rng.Intn(700)
	switch p := rng.Intn(100); {
	case p < 70:
		addr = uint32(rng.Intn(64 << 10))
	case p < 88:
		addr = uint32(rng.Intn(far / 8))
	case p < 94:
		addr = uint32(rng.Intn(far - n))
	case p < 97 && top:
		addr = uint32(isa.UnifiedBufferBytes - n)
	default:
		addr = uint32(isa.UnifiedBufferBytes - n + 1 + rng.Intn(300))
	}
	return addr, n
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestUnifiedBufferMatchesEagerOracle drives the on-demand buffer and the
// eager 24 MiB oracle through the same seeded sequences of Write / Read /
// View / FlipBit / VerifyGuard / ResyncGuard / Reset and requires identical
// bytes, identical bad-block lists and identical error strings at every
// step, then identical full contents and a full-buffer verify at the end.
func TestUnifiedBufferMatchesEagerOracle(t *testing.T) {
	ops := 1500
	if testing.Short() {
		ops = 300
	}
	for _, guarded := range []bool{false, true} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed))
			u, e := NewUnifiedBuffer(), newEagerUB(guarded)
			if guarded {
				u.EnableGuard()
			}
			for i := 0; i < ops; i++ {
				// far doubles eight times, 128 KiB to 16 MiB, then the whole
				// buffer with accesses ending at its top for the last eighth.
				far, top := (128<<10)<<(i*8/ops), i >= ops*7/8
				if top {
					far = isa.UnifiedBufferBytes
				}
				addr, n := oracleSpan(rng, far, top)
				where := fmt.Sprintf("guarded=%v seed %d op %d at %#x+%d", guarded, seed, i, addr, n)
				switch op := rng.Intn(20); {
				case op < 7:
					src := make([]int8, n)
					for j := range src {
						src[j] = int8(rng.Intn(256))
					}
					got, want := errString(u.Write(addr, src)), errString(e.Write(addr, src))
					if got != want {
						t.Fatalf("%s: Write error %q, oracle %q", where, got, want)
					}
				case op < 13:
					read, name := u.Read, "read"
					if op%2 == 0 {
						read, name = u.View, "view"
					}
					got, gerr := read(addr, n)
					want, werr := e.Read(name, addr, n)
					if errString(gerr) != errString(werr) {
						t.Fatalf("%s: %s error %q, oracle %q", where, name, errString(gerr), errString(werr))
					}
					if gerr == nil && !slices.Equal(got, want) {
						t.Fatalf("%s: %s bytes differ from the oracle", where, name)
					}
				case op < 16:
					bit := uint8(rng.Intn(16))
					u.FlipBit(addr, bit)
					e.FlipBit(addr, bit)
				case op < 18:
					if got, want := u.VerifyGuard(addr, n), e.VerifyGuard(addr, n); !slices.Equal(got, want) {
						t.Fatalf("%s: VerifyGuard %v, oracle %v", where, got, want)
					}
				case op < 19:
					u.ResyncGuard(addr, n)
					e.ResyncGuard(addr, n)
				default:
					if rng.Intn(4) == 0 { // a run is many ops long
						u.Reset()
						e.Reset()
					}
				}
				if u.HighWater() != e.highWater {
					t.Fatalf("%s: high water %d, oracle %d", where, u.HighWater(), e.highWater)
				}
				if len(u.data) > u.Size() || len(u.data)%ubGuardBlock != 0 {
					t.Fatalf("%s: backed prefix is %d bytes", where, len(u.data))
				}
			}
			where := fmt.Sprintf("guarded=%v seed %d", guarded, seed)
			if got, want := u.VerifyGuard(0, u.Size()), e.VerifyGuard(0, u.Size()); !slices.Equal(got, want) {
				t.Fatalf("%s: full VerifyGuard %v, oracle %v", where, got, want)
			}
			all, err := u.View(0, u.Size())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(all, e.data) {
				t.Fatalf("%s: full contents differ from the oracle", where)
			}
			u.Reset()
			e.Reset()
			if got, want := u.VerifyGuard(0, u.Size()), e.VerifyGuard(0, u.Size()); !slices.Equal(got, want) {
				t.Fatalf("%s: after Reset, full VerifyGuard %v, oracle %v", where, got, want)
			}
			if !slices.Equal(u.data, e.data) {
				t.Fatalf("%s: contents differ from the oracle after Reset", where)
			}
		}
	}
}

// TestUnifiedBufferBackedOnDemand: a fresh buffer holds nothing, a program-
// sized write backs a program-sized prefix, and the backing never passes
// 24 MiB however often the top is touched.
func TestUnifiedBufferBackedOnDemand(t *testing.T) {
	u := NewUnifiedBuffer()
	if len(u.data) != 0 {
		t.Fatalf("fresh buffer backs %d bytes", len(u.data))
	}
	if err := u.Write(1000, make([]int8, 3000)); err != nil {
		t.Fatal(err)
	}
	if len(u.data) < 4000 || len(u.data) > 8192 {
		t.Fatalf("a 4000-byte extent backs %d bytes", len(u.data))
	}
	u.Reset()
	if len(u.data) < 4000 {
		t.Fatalf("Reset dropped the grown store (%d bytes)", len(u.data))
	}
	for i := 0; i < 3; i++ {
		if err := u.Write(uint32(u.Size()-1), []int8{1}); err != nil {
			t.Fatal(err)
		}
		if _, err := u.View(0, u.Size()); err != nil {
			t.Fatal(err)
		}
		if len(u.data) != u.Size() || cap(u.data) != u.Size() {
			t.Fatalf("touching the top backs len %d cap %d", len(u.data), cap(u.data))
		}
	}
}
