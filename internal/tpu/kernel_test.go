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
// on both) stays covered.
func TestUnderEachKernel(t *testing.T) {
	kerneltest.Each(t, func(t *testing.T) {
		t.Run("FunctionalBitExactAcrossParallelism", TestFunctionalBitExactAcrossParallelism)
		t.Run("RecycledTilesSeeWeightCorruption", TestRecycledTilesSeeWeightCorruption)
		t.Run("IntegrityDetectsEveryFlipKind", TestIntegrityDetectsEveryFlipKind)
		t.Run("IntegrityCorrectsInPlace", TestIntegrityCorrectsInPlace)
		t.Run("IntegrityWeightCorruptionPersistsUntilScrub", TestIntegrityWeightCorruptionPersistsUntilScrub)
	})
}
