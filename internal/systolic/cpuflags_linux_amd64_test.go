package systolic

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestKernelSelectionMatchesCPUFlags checks hostKernels' reading of CPUID and
// XCR0 against the kernel's: the ladder it built must be every rung whose
// flags /proc/cpuinfo lists (Linux lists an AVX flag only when it has enabled
// the register state), top rung first. A wrong bit would otherwise degrade to
// a slower kernel with every differential test green and nothing to show it.
func TestKernelSelectionMatchesCPUFlags(t *testing.T) {
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
	var want []string
	if has("avx512f", "avx512bw", "avx512_vnni") {
		want = append(want, vnni.name)
	}
	if has("avx2") {
		want = append(want, avx2.name)
	}
	want = append(want, swar.name)
	var got []string
	for _, k := range kernels {
		got = append(got, k.name)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("hostKernels built %v; /proc/cpuinfo's flags say %v", got, want)
	}
	if Kernel() != want[0] {
		t.Fatalf("MultiplyInto runs %s, want the top rung %s", Kernel(), want[0])
	}
}
