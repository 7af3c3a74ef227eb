package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFlagsMatchProcCPUInfo checks detect's reading of CPUID, XCR0 and the
// tile-data request against the kernel's: Linux lists an AVX or AMX flag in
// /proc/cpuinfo only when CPUID reports it and the kernel has enabled its
// register state, and a kernel that enables the tile state grants it to a
// process that asks. A wrong bit would otherwise leave the matrix kernel on
// a lower rung with every differential test green.
func TestFlagsMatchProcCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read the CPU flags: %v", err)
	}
	_, line, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	line, _, _ = strings.Cut(line, "\n")
	flags := strings.Fields(strings.TrimLeft(line, "\t :"))
	has := func(want ...string) bool {
		for _, f := range want {
			if !slices.Contains(flags, f) {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name  string
		got   bool
		flags []string
	}{
		{"AVX2", AVX2, []string{"avx2"}},
		{"AVX512VNNI", AVX512VNNI, []string{"avx512f", "avx512bw", "avx512_vnni"}},
		{"AMX", AMX, []string{"amx_tile", "amx_int8"}},
	} {
		if want := has(c.flags...); c.got != want {
			t.Errorf("%s = %v, but /proc/cpuinfo lists %v: %v", c.name, c.got, c.flags, want)
		}
	}
}
