package tensor

// axpyAVX2 adds a*x[j] to dst[j] for j < n, the product rounded before the
// add (tensor_amd64.s). n is a positive multiple of 8; axpy does the rest of
// a row with the scalar code.
//
//go:noescape
func axpyAVX2(dst, x *float32, n int, a float32)
