package cpu

func detect() (avx2, avx512vnni, avx512vbmi, amx bool) {
	const (
		osxsave, avx               = 1 << 27, 1 << 28         // leaf 1 ECX
		avx2Bit, avx512f, avx512bw = 1 << 5, 1 << 16, 1 << 30 // leaf 7 EBX
		vbmi, vnni                 = 1 << 1, 1 << 11          // leaf 7 ECX
		amxTile, amxInt8           = 1 << 24, 1 << 25         // leaf 7 EDX
		ymmState, zmmState         = 0x06, 0xE6               // XCR0
		tileState                  = 0x60000                  // XCR0: XTILECFG, XTILEDATA
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, c1, _ := cpuid(1, 0)
	if maxLeaf < 7 || c1&(osxsave|avx) != osxsave|avx {
		return false, false, false, false
	}
	xcr := xcr0()
	_, b7, c7, d7 := cpuid(7, 0)
	avx2 = xcr&ymmState == ymmState && b7&avx2Bit != 0
	avx512 := xcr&zmmState == zmmState && b7&(avx512f|avx512bw) == avx512f|avx512bw
	avx512vnni = avx512 && c7&vnni != 0
	avx512vbmi = avx512 && c7&vbmi != 0
	amx = xcr&tileState == tileState && d7&(amxTile|amxInt8) == amxTile|amxInt8 && requestTileData()
	return avx2, avx512vnni, avx512vbmi, amx
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xcr0() uint32
