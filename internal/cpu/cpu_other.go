//go:build !amd64

package cpu

// detect: only amd64 has assembly.
func detect() (avx2, avx512vnni, avx512vbmi, amx bool) { return false, false, false, false }
