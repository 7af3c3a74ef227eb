//go:build !amd64

package cpu

// detect: only amd64 has assembly.
func detect() (avx2, avx512vnni, amx bool) { return false, false, false }
