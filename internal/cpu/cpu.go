// Package cpu reads, once at start-up, which of the vector and matrix
// instruction sets this module's assembly uses the host can run. An
// instruction set counts only when CPUID reports it and XCR0 shows the OS
// saving the registers it needs, so a hypervisor that masks the register
// state turns it off even where CPUID advertises the instructions.
//
// AMX needs one more grant: Linux enables the 8 KiB of tile data per
// process, on request (arch_prctl ARCH_REQ_XCOMP_PERM for XTILEDATA, feature
// 18), and faults the first tile instruction of a process that did not ask.
// detect makes that request, so AMX is true only when all of these hold:
// CPUID leaf 7 EDX reports AMX-TILE (bit 24) and AMX-INT8 (bit 25), XCR0 has
// XTILECFG and XTILEDATA (bits 17 and 18) set, and the request succeeded.
// Off amd64 every flag is false, and so is AMX off Linux.
package cpu

// AVX2 is AVX2 with the XMM and YMM state saved (XCR0 bits 1 and 2): the
// matrix unit's avx2 kernel and the fixed-point row passes.
//
// AVX512VNNI is AVX-512 F, BW and VNNI with the opmask and both halves of the
// ZMM file saved on top (XCR0 bits 5, 6 and 7): the avx512vnni kernel.
//
// AMX is AMX-TILE and AMX-INT8 with the tile state saved and granted to this
// process: the tile half of the amx kernel.
var AVX2, AVX512VNNI, AMX = detect()
