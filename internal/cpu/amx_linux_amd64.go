package cpu

import "syscall"

// requestTileData asks Linux for the AMX tile data state (XTILEDATA, feature
// 18) for every thread of the process; kernels before 5.16 and those that
// refuse it return an error, and the tiles stay off.
func requestTileData() bool {
	const archReqXcompPerm, xfeatureXtileData = 0x1023, 18
	_, _, errno := syscall.RawSyscall(syscall.SYS_ARCH_PRCTL, archReqXcompPerm, xfeatureXtileData, 0)
	return errno == 0
}
