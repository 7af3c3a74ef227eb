// Package kerneltest lets tests outside package systolic run under each of
// its batched kernels. It reaches systolic's unexported test switch, and the
// switches for fixed's row passes and tensor's float pass, by linkname, so
// no switch is part of an API. (systolic's own in-package tests cannot import
// this package — it imports systolic — and call the switch directly.)
package kerneltest

import (
	"testing"
	_ "unsafe" // for go:linkname

	_ "tpusim/internal/fixed"    // defines useVector and useWide
	_ "tpusim/internal/systolic" // defines runUnder
	_ "tpusim/internal/tensor"   // defines useVector and useWide
)

//go:linkname runUnder tpusim/internal/systolic.runUnder
func runUnder(i int) (name string, ok bool)

//go:linkname useVector tpusim/internal/fixed.useVector
func useVector(on bool) bool

//go:linkname useWide tpusim/internal/fixed.useWide
func useWide(on bool) bool

//go:linkname useFloatVector tpusim/internal/tensor.useVector
func useFloatVector(on bool) bool

//go:linkname useFloatWide tpusim/internal/tensor.useWide
func useFloatWide(on bool) bool

// Each runs f as a subtest under every batched kernel this host can run,
// fastest first: "swar" always, above it "avx2", "avx512vnni" and "amx"
// where the CPU and the OS provide them. The assembly rungs run with fixed's and tensor's vector
// passes on; "swar", the portable rung, runs with them off too, so that it is
// what a host without assembly runs, and "avx2" with fixed's AVX-512 passes
// and tensor's AVX-512 matmul off, as an AVX2-only host runs. It must not
// be used from parallel tests: the switches are process-wide.
func Each(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Cleanup(func() {
		runUnder(0)
		useVector(true)
		useFloatVector(true)
	})
	for i := 0; ; i++ {
		name, ok := runUnder(i)
		if !ok {
			return
		}
		useVector(name != "swar")
		useWide(name != "avx2")
		useFloatVector(name != "swar")
		useFloatWide(name != "avx2")
		t.Run(name, f)
	}
}
