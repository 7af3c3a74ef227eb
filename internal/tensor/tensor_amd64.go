package tensor

// axpyAVX2 adds a*x[j] to dst[j] for j < n, the product rounded before the
// add (tensor_amd64.s). n is a positive multiple of 8; axpy does the rest of
// a row with the scalar code.
//
//go:noescape
func axpyAVX2(dst, x *float32, n int, a float32)

// gemmAVX512 adds a[i][kk]*w[kk][j] to out[i][j] for i < 4, j < 64 and
// kk < k, each product rounded before its add, in kk order, a zero
// activation adding nothing (tensor_amd64.s). lda, ldw and ldo are the
// operands' row strides in floats; k is positive.
//
//go:noescape
func gemmAVX512(a *float32, lda int, w *float32, ldw int, out *float32, ldo int, k int)
