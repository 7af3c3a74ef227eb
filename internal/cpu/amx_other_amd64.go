//go:build amd64 && !linux

package cpu

// requestTileData: the tile state is requested only on Linux, so AMX is off
// on every other OS.
func requestTileData() bool { return false }
