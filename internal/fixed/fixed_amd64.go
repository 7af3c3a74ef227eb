package fixed

// The row passes (fixed_amd64.s): AVX2, and the drain and the quantize on
// AVX-512 too. n is a positive multiple of 8 (of 16 for the AVX-512 passes);
// the callers do the rest of a row with the narrower pass or the scalar code.

// satAddAVX2 is SatAddRow over dst[:n] and src[:n].
//
//go:noescape
func satAddAVX2(dst, src *int32, n int) uint32

// drainAVX2 sets dst[j] to tab[v+128], v being (src[j]*s)/d rounded half
// to even and clamped to [-128, 127], NaN to -128, for j < n. r is s/d in
// float32, or NaN where that is not a normal float32: the pass rounds
// float32(src[j])*r wherever that provably gives the same v, and divides
// elsewhere.
//
//go:noescape
func drainAVX2(dst *int8, src *int32, n int, s, d float64, r float32, tab *[256]int8)

// drainAVX512 is drainAVX2 on AVX-512, for n a positive multiple of 16.
//
//go:noescape
func drainAVX512(dst *int8, src *int32, n int, s, d float64, r float32, tab *[256]int8)

// quantizeAVX2 sets dst[j] to src[j]/d rounded half to even and clamped to
// [-128, 127], NaN to -128, for j < n. r is 1/d as drainAVX2's r is s/d.
//
//go:noescape
func quantizeAVX2(dst *int8, src *float32, n int, d float64, r float32)

// quantizeAVX512 is quantizeAVX2 on AVX-512, for n a positive multiple of 16.
//
//go:noescape
func quantizeAVX512(dst *int8, src *float32, n int, d float64, r float32)

// dequantizeAVX2 sets dst[j] to scale*float32(src[j]) for j < n.
//
//go:noescape
func dequantizeAVX2(dst *float32, src *int8, n int, scale float32)

// absMaxAVX2 is AbsMax over src[:n].
//
//go:noescape
func absMaxAVX2(src *float32, n int) float32
