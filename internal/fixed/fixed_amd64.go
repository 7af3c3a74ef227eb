package fixed

// The AVX2 row passes (fixed_amd64.s). n is a positive multiple of 8; the
// callers do the rest of a row with the scalar code.

// satAddAVX2 is SatAddRow over dst[:n] and src[:n].
//
//go:noescape
func satAddAVX2(dst, src *int32, n int) uint32

// requantizeAVX2 sets dst[j] to (src[j]*s)/d rounded half to even and
// clamped to [-128, 127], NaN to -128, for j < n.
//
//go:noescape
func requantizeAVX2(dst *int8, src *int32, n int, s, d float64)

// quantizeAVX2 is requantizeAVX2 from a float32 source.
//
//go:noescape
func quantizeAVX2(dst *int8, src *float32, n int, s, d float64)
