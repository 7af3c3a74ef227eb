package obs_test

import (
	"math"
	"strconv"
	"testing"
	"unsafe"

	"tpusim/internal/obs"
)

// FuzzAttrValue is the formatting oracle: a typed attribute's Value is
// exactly the string the strconv call it replaces would have stored at
// construction, for every int64, every float64 bit pattern and every string.
func FuzzAttrValue(f *testing.F) {
	for _, seed := range []struct {
		i int64
		x float64
		s string
	}{
		{0, 0, ""},
		{-1, math.Copysign(0, -1), "a\x00b"},
		{math.MinInt64, math.NaN(), "model"},
		{math.MaxInt64, math.Inf(1), "\x00"},
		{99, math.Inf(-1), "batch-full"},
		{100, math.SmallestNonzeroFloat64, "ünïcode"},
		{-100, 1e21, " "},
		{1 << 40, 1e20, "x"},
	} {
		f.Add(seed.i, math.Float64bits(seed.x), seed.s)
	}
	f.Add(int64(0), uint64(0x7ff8000000000001), "") // a NaN with another payload
	f.Fuzz(func(t *testing.T, i int64, bits uint64, s string) {
		x := math.Float64frombits(bits)
		for _, c := range []struct {
			name, got, want string
		}{
			{"Int", obs.Int("k", int(i)).Value(), strconv.Itoa(int(i))},
			{"Int64", obs.Int64("k", i).Value(), strconv.FormatInt(i, 10)},
			{"Float", obs.Float("k", x).Value(), strconv.FormatFloat(x, 'g', -1, 64)},
			{"String", obs.String("k", s).Value(), s},
		} {
			if c.got != c.want {
				t.Errorf("%s(%d / %#x / %q).Value() = %q, want %q", c.name, i, bits, s, c.got, c.want)
			}
		}
		if k := obs.Float("key", x).Key; k != "key" {
			t.Errorf("Float kept key %q", k)
		}
	})
}

// TestAttrSize pins the typed attribute at two strings' size. Every request
// span holds five of them, so a 48-byte Attr would grow the ramp trace's
// attribute arrays by half.
func TestAttrSize(t *testing.T) {
	if n := unsafe.Sizeof(obs.Attr{}); n != 32 {
		t.Errorf("obs.Attr is %d bytes, want 32", n)
	}
}
