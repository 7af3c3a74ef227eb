//go:build !amd64

package systolic

// hostKernels: only amd64 has assembly kernels.
func hostKernels() []*kernel { return []*kernel{&swar} }
