package integrity

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// oracleTable is the byte-at-a-time CRC-32C lookup table built from the
// polynomial itself (reversed representation), independent of hash/crc32.
var oracleTable = func() (t [256]uint32) {
	const poly = 0x82F63B78
	for i := range t {
		crc := uint32(i)
		for k := 0; k < 8; k++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// oracleUpdate is Update one byte at a time through oracleTable.
func oracleUpdate(crc uint32, data []int8) uint32 {
	crc = ^crc
	for _, b := range data {
		crc = oracleTable[byte(crc)^byte(b)] ^ crc>>8
	}
	return ^crc
}

// TestCRCMatchesStdlib pins the int8-domain CRC to the stdlib Castagnoli
// implementation over the same bytes.
func TestCRCMatchesStdlib(t *testing.T) {
	data := make([]int8, 1000)
	raw := make([]byte, 1000)
	for i := range data {
		data[i] = int8(i*31 + 7)
		raw[i] = byte(data[i])
	}
	want := crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli))
	if got := CRC(data); got != want {
		t.Fatalf("CRC = %#08x, stdlib %#08x", got, want)
	}
	if got := oracleUpdate(0, data); got != want {
		t.Fatalf("table oracle = %#08x, stdlib %#08x", got, want)
	}
}

// TestUpdateIsIncremental: Update(0, a+b) == Update(Update(0, a), b) for
// every split point.
func TestUpdateIsIncremental(t *testing.T) {
	data := make([]int8, 64)
	for i := range data {
		data[i] = int8(i * 13)
	}
	whole := CRC(data)
	for split := 0; split <= len(data); split++ {
		if got := Update(Update(0, data[:split]), data[split:]); got != whole {
			t.Fatalf("split %d: %#08x != %#08x", split, got, whole)
		}
	}
}

// FuzzCRC holds CRC and Update to the table oracle: data of any length up
// to 200 KiB (a seed and a length grow it past the raw input, so the
// hardware path's large-block loops run), from any starting CRC, and
// Update resumed at every split point of the raw input.
func FuzzCRC(f *testing.F) {
	f.Add([]byte{}, uint32(0), int64(1), uint32(0))
	f.Add([]byte("123456789"), uint32(0), int64(2), uint32(7))
	f.Add([]byte{0x80, 0xff, 0x00, 0x7f}, uint32(0xffffffff), int64(3), uint32(4096))
	f.Add(make([]byte, 300), uint32(0x12345678), int64(4), uint32(65536))
	f.Add([]byte{1}, uint32(1), int64(5), uint32(200<<10))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint32, gen int64, grow uint32) {
		data := make([]int8, len(raw), len(raw)+int(grow%(200<<10+1)))
		for i, b := range raw {
			data[i] = int8(b)
		}
		whole := oracleUpdate(seed, data)
		if got := Update(seed, data); got != whole {
			t.Fatalf("Update(%#x, %d bytes) = %#08x, oracle %#08x", seed, len(data), got, whole)
		}
		if seed == 0 && CRC(data) != whole {
			t.Fatalf("CRC(%d bytes) = %#08x, oracle %#08x", len(data), CRC(data), whole)
		}
		for split := 0; split <= len(data); split++ {
			if got := Update(Update(seed, data[:split]), data[split:]); got != whole {
				t.Fatalf("split %d of %d: %#08x, oracle %#08x", split, len(data), got, whole)
			}
		}
		long := data[:cap(data)]
		r := rand.New(rand.NewSource(gen))
		for i := len(data); i < len(long); i++ {
			long[i] = int8(r.Uint32())
		}
		if got, want := Update(seed, long), oracleUpdate(seed, long); got != want {
			t.Fatalf("Update(%#x, %d bytes) = %#08x, oracle %#08x", seed, len(long), got, want)
		}
	})
}

// BenchmarkCRC seals one 64 KiB weight tile: the table oracle against CRC.
func BenchmarkCRC(b *testing.B) {
	tile := make([]int8, 64<<10)
	r := rand.New(rand.NewSource(1))
	for i := range tile {
		tile[i] = int8(r.Uint32())
	}
	for _, c := range []struct {
		name string
		crc  func([]int8) uint32
	}{
		{"table", func(d []int8) uint32 { return oracleUpdate(0, d) }},
		{"crc32", CRC},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(tile)))
			for b.Loop() {
				c.crc(tile)
			}
		})
	}
}
