//go:build !amd64

package tensor

// Off amd64 there is no assembly: cpu.AVX2 is false, so vector is never set
// and the pass is never called.

func axpyAVX2(dst, x *float32, n int, a float32) { panic("tensor: no AVX2 off amd64") }
