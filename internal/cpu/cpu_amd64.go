package cpu

func detect() (avx2, avx512vnni bool) {
	const (
		osxsave, avx               = 1 << 27, 1 << 28         // leaf 1 ECX
		avx2Bit, avx512f, avx512bw = 1 << 5, 1 << 16, 1 << 30 // leaf 7 EBX
		vnni                       = 1 << 11                  // leaf 7 ECX
		ymmState, zmmState         = 0x06, 0xE6               // XCR0
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if maxLeaf < 7 || c1&(osxsave|avx) != osxsave|avx {
		return false, false
	}
	xcr := xcr0()
	_, b7, c7, _ := cpuid(7, 0)
	avx2 = xcr&ymmState == ymmState && b7&avx2Bit != 0
	avx512vnni = xcr&zmmState == zmmState && b7&(avx512f|avx512bw) == avx512f|avx512bw && c7&vnni != 0
	return avx2, avx512vnni
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xcr0() uint32
