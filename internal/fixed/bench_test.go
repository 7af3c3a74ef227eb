package fixed

import "testing"

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

// benchPaths runs f as one sub-benchmark per path of the row passes: the
// scalar loop, and the vector pass where the host has it.
func benchPaths(b *testing.B, f func(b *testing.B)) {
	defer useVector(true)
	for _, on := range []bool{false, true} {
		if useVector(on) != on {
			continue
		}
		name := "scalar"
		if on {
			name = "vector"
		}
		b.Run(name, f)
	}
}

// BenchmarkDrainRow drains one 256-wide accumulator row through a ReLU
// table and a sigmoid table.
func BenchmarkDrainRow(b *testing.B) {
	var acc [256]int32
	for i := range acc {
		acc[i] = int32(i*7919%20000 - 10000)
	}
	var dst [256]int8
	pre := ChooseParams(8)
	for _, fn := range []Nonlinearity{ReLU, Sigmoid} {
		lut := NewLUT(fn, pre, OutputParams(fn, pre))
		b.Run(fn.String(), func(b *testing.B) {
			benchPaths(b, func(b *testing.B) {
				b.SetBytes(int64(len(acc)) * 4)
				for b.Loop() {
					lut.DrainRow(dst[:], acc[:], 0.001, pre)
				}
			})
		})
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
