// Package cpu reads, once at start-up, which of the vector instruction sets
// this module's assembly uses the host can run. An instruction set counts
// only when CPUID reports it and XCR0 shows the OS saving the registers it
// needs, so a hypervisor that masks the register state turns it off even
// where CPUID advertises the instructions. Off amd64 both are false.
package cpu

// AVX2 is AVX2 with the XMM and YMM state saved (XCR0 bits 1 and 2): the
// matrix unit's avx2 kernel and the fixed-point row passes.
//
// AVX512VNNI is AVX-512 F, BW and VNNI with the opmask and both halves of the
// ZMM file saved on top (XCR0 bits 5, 6 and 7): the avx512vnni kernel.
var AVX2, AVX512VNNI = detect()
