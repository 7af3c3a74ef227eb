//go:build !amd64

package tensor

// Off amd64 there is no assembly: cpu.AVX2 is false, so vector is never set
// and the passes are never called.

func axpyAVX2(dst, x *float32, n int, a float32) { panic("tensor: no AVX2 off amd64") }

func gemmAVX512(a *float32, lda int, w *float32, ldw int, out *float32, ldo int, k int) {
	panic("tensor: no AVX-512 off amd64")
}
