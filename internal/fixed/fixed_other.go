//go:build !amd64

package fixed

// Off amd64 there is no assembly: cpu.AVX2 is false, so vector is never set
// and the row passes are never called.

func satAddAVX2(dst, src *int32, n int) uint32 { panic("fixed: no AVX2 off amd64") }

func drainAVX2(dst *int8, src *int32, n int, s, d float64, r float32, tab *[256]int8) {
	panic("fixed: no AVX2 off amd64")
}

func drainAVX512(dst *int8, src *int32, n int, s, d float64, r float32, tab *[256]int8) {
	panic("fixed: no AVX-512 off amd64")
}

func quantizeAVX2(dst *int8, src *float32, n int, d float64, r float32) {
	panic("fixed: no AVX2 off amd64")
}

func quantizeAVX512(dst *int8, src *float32, n int, d float64, r float32) {
	panic("fixed: no AVX-512 off amd64")
}

func dequantizeAVX2(dst *float32, src *int8, n int, scale float32) {
	panic("fixed: no AVX2 off amd64")
}

func absMaxAVX2(src *float32, n int) float32 { panic("fixed: no AVX2 off amd64") }
