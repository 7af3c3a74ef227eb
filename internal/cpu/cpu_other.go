//go:build !amd64

package cpu

// detect: only amd64 has assembly.
func detect() (avx2, avx512vnni bool) { return false, false }
