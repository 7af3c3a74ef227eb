package tpu

import (
	"testing"

	"tpusim/internal/systolic/kerneltest"
)

// TestUnderEachKernel reruns the tests whose verdict depends on what the
// matrix kernel reads — sharded determinism, weight-DRAM corruption reaching
// the multiply through recycled tiles, and the flip detection and correction
// tests — under each batched kernel the host can run, so every rung below
// the one the host selects (AVX2 on an AVX-512 host, the portable SWAR kernel
// on both) stays covered. The datapath around the kernel rides the same
// ladder: the assembly rungs run fixed's vector accumulate-store, drain and
// quantize passes, the swar rung their scalar code, and the device is held
// to nn's reference on every model structure (FC, LSTM, CNN with its
// convolution gather and pooling), on FC rows read in place beside nonzero
// bytes, and on random models whose vector layers and sigmoid / tanh tables
// take the table-lookup drain. One device runs three programs in a row and
// must answer each as a fresh device does.
func TestUnderEachKernel(t *testing.T) {
	kerneltest.Each(t, func(t *testing.T) {
		t.Run("DeviceMatchesQuantizedReference", TestDeviceMatchesQuantizedReference)
		t.Run("DeviceBitExactOnRandomModels", TestDeviceBitExactOnRandomModels)
		t.Run("FunctionalBitExactAcrossParallelism", TestFunctionalBitExactAcrossParallelism)
		t.Run("RecycledTilesSeeWeightCorruption", TestRecycledTilesSeeWeightCorruption)
		t.Run("IntegrityDetectsEveryFlipKind", TestIntegrityDetectsEveryFlipKind)
		t.Run("IntegrityCorrectsInPlace", TestIntegrityCorrectsInPlace)
		t.Run("IntegrityWeightCorruptionPersistsUntilScrub", TestIntegrityWeightCorruptionPersistsUntilScrub)
		t.Run("WeightFlipLandsOnItsWeight", TestWeightFlipLandsOnItsWeight)
		t.Run("FCInPlaceRowsMatchReference", TestFCInPlaceRowsMatchReference)
		t.Run("RunsShareNoAccumulatorState", TestRunsShareNoAccumulatorState)
	})
}
