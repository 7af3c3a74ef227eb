package fixed

import (
	"fmt"
	"testing"
)

func BenchmarkQuantize(b *testing.B) {
	p := ChooseParams(4)
	var s int8
	for i := 0; i < b.N; i++ {
		s += p.Quantize(float32(i%256) / 32)
	}
	_ = s
}

func BenchmarkRequantize(b *testing.B) {
	dst := Params{Scale: 0.05}
	var s int8
	for i := 0; i < b.N; i++ {
		s += Requantize(int32(i%100000), 0.001, dst)
	}
	_ = s
}

// benchPaths runs f as one sub-benchmark per path of the row passes the
// host has (see paths).
func benchPaths(b *testing.B, f func(b *testing.B)) {
	defer useVector(true)
	for _, p := range paths {
		if useVector(p.vector) != p.vector || useWide(p.wide) != p.wide {
			continue
		}
		b.Run(p.name, f)
	}
}

// BenchmarkDrainRow drains an accumulator row through a ReLU table and a
// sigmoid table: 256 lanes, the one register an Activate drains at a time,
// and 1024, an FC 1024 layer's output row.
func BenchmarkDrainRow(b *testing.B) {
	pre := ChooseParams(8)
	for _, fn := range []Nonlinearity{ReLU, Sigmoid} {
		lut := NewLUT(fn, pre, OutputParams(fn, pre))
		for _, width := range []int{256, 1024} {
			acc := make([]int32, width)
			for i := range acc {
				acc[i] = int32(i*7919%20000 - 10000)
			}
			dst := make([]int8, width)
			b.Run(fmt.Sprintf("%v/w=%d", fn, width), func(b *testing.B) {
				benchPaths(b, func(b *testing.B) {
					b.SetBytes(int64(len(acc)) * 4)
					for b.Loop() {
						lut.DrainRow(dst, acc, 0.001, pre)
					}
				})
			})
		}
	}
}

// BenchmarkSatAddRows accumulates 64 256-wide rows, the accumulate-store of
// one MatrixMultiply at batch 64.
func BenchmarkSatAddRows(b *testing.B) {
	dst := make([]int32, 64*256)
	src := make([]int32, len(dst))
	for i := range src {
		src[i] = int32(i*2654435761) >> 8
	}
	benchPaths(b, func(b *testing.B) {
		b.SetBytes(int64(len(dst)) * 4)
		for b.Loop() {
			for r := 0; r < len(dst); r += 256 {
				SatAddRow(dst[r:r+256], src[r:r+256])
			}
		}
	})
}

// BenchmarkQuantizeInto quantizes one 64 x 1024 float32 input batch.
func BenchmarkQuantizeInto(b *testing.B) {
	src := make([]float32, 64*1024)
	for i := range src {
		src[i] = float32(i%2000-1000) / 250
	}
	dst := make([]int8, len(src))
	p := ChooseParams(4)
	benchPaths(b, func(b *testing.B) {
		b.SetBytes(int64(len(src)) * 4)
		for b.Loop() {
			QuantizeInto(dst, src, p)
		}
	})
}

// BenchmarkDequantizeInto dequantizes one 64 x 1024 int8 output batch, the
// wide MLP's.
func BenchmarkDequantizeInto(b *testing.B) {
	src := make([]int8, 64*1024)
	for i := range src {
		src[i] = int8(i * 7)
	}
	dst := make([]float32, len(src))
	p := ChooseParams(4)
	benchPaths(b, func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for b.Loop() {
			DequantizeInto(dst, src, p)
		}
	})
}
