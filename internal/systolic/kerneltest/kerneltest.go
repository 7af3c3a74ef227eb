// Package kerneltest lets tests outside package systolic run under each of
// its batched kernels. It reaches systolic's unexported test switch by
// linkname, so the switch is no part of systolic's API. (systolic's own
// in-package tests cannot import this package — it imports systolic — and
// call the switch directly.)
package kerneltest

import (
	"testing"
	_ "unsafe" // for go:linkname

	_ "tpusim/internal/systolic" // defines runUnder
)

//go:linkname runUnder tpusim/internal/systolic.runUnder
func runUnder(i int) (name string, ok bool)

// Each runs f as a subtest under every batched kernel this host can run,
// fastest first: "swar" always, above it "avx2" and "avx512vnni" where the
// CPU has them. It must not be used from parallel tests: the switch is
// process-wide.
func Each(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	t.Cleanup(func() { runUnder(0) })
	for i := 0; ; i++ {
		name, ok := runUnder(i)
		if !ok {
			return
		}
		t.Run(name, f)
	}
}
