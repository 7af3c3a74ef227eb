package compiler

import (
	"testing"

	"tpusim/internal/models"
)

// BenchmarkCompileShape measures shape-only compilation of each production
// model (the driver's first-evaluation slow path, minus quantization).
func BenchmarkCompileShape(b *testing.B) {
	for _, bm := range models.All() {
		b.Run(bm.Model.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := CompileShape(bm.Model, Options{Allocator: Reuse}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileWide is the compile half of infer_batch's cold start: a
// functional compile of the wide model (four FC 1024 layers, batch 64),
// weight image included.
func BenchmarkCompileWide(b *testing.B) {
	qm := wideModel(b)
	for b.Loop() {
		if _, err := Compile(qm, Options{Allocator: Reuse}); err != nil {
			b.Fatal(err)
		}
	}
}
