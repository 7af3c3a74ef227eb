//go:build !amd64

package systolic

// nativeKernel: only amd64 has an assembly kernel.
func nativeKernel() *kernel { return &swar }
