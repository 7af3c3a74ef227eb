// Package integrity holds the shared data-integrity primitives of the
// simulated fleet: a CRC-32C (Castagnoli) checksum over the int8 byte
// domain every storage structure and link in this codebase traffics in.
// The memory package builds per-region sidecars from it, the pcie package
// frames host<->device transfers with it, and the device verifies Weight
// FIFO tiles with it — one polynomial end to end, so a value checked where
// it lives can be re-checked where it moves.
//
// It is a leaf package (stdlib only) so every layer of the stack can
// depend on it without cycles.
package integrity

import (
	"hash/crc32"
	"unsafe"
)

// CRC returns the CRC-32C of data.
func CRC(data []int8) uint32 {
	return Update(0, data)
}

// Update continues a CRC-32C over more data; Update(0, a+b) ==
// Update(Update(0, a), b). crc32.Update recognises the Castagnoli table and
// uses the CPU's CRC32 instruction where there is one (SSE4.2 on amd64, the
// CRC extension on arm64). MakeTable builds that table and the instruction's
// folding tables (~9 KiB of heap) once, at the first call, so a process that
// never checks a CRC does not hold them.
func Update(crc uint32, data []int8) uint32 {
	bytes := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), len(data))
	return crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), bytes)
}
