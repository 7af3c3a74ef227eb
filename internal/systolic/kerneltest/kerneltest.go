// Package kerneltest lets tests outside package systolic run under each of
// its batched kernels. It reaches systolic's unexported test switch by
// linkname, so the switch is no part of systolic's API. (systolic's own
// in-package tests cannot import this package — it imports systolic — and
// flip the switch directly.)
package kerneltest

import (
	"testing"
	_ "unsafe" // for go:linkname

	"tpusim/internal/systolic"
)

//go:linkname forcePortable tpusim/internal/systolic.forcePortable
var forcePortable bool

// Each runs f as a subtest under every batched kernel this host can run:
// "swar" always, "avx2" where the CPU has it. It must not be used from
// parallel tests: the switch is process-wide.
func Each(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	old := forcePortable
	t.Cleanup(func() { forcePortable = old })
	ran := ""
	for _, portable := range []bool{false, true} {
		forcePortable = portable
		if name := systolic.Kernel(); name != ran {
			ran = name
			t.Run(name, f)
		}
	}
}
