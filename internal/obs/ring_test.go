package obs

import (
	"runtime"
	"testing"
	"unsafe"
)

// TestRingBoundaries checks the chunked ring against a naive one at every
// capacity and fill that sits on a chunk edge: Spans is the newest
// min(n, capacity) spans oldest first, and Dropped counts the rest.
func TestRingBoundaries(t *testing.T) {
	for _, capacity := range []int{1, spanChunk - 1, spanChunk, spanChunk + 1, 3*spanChunk + 5} {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
			tr := NewTracer(capacity)
			var naive []uint64
			for i := 1; i <= n; i++ {
				tr.Emit(SpanData{ID: uint64(i)})
				naive = append(naive, uint64(i))
				if len(naive) > capacity {
					naive = naive[1:]
				}
			}
			got := tr.Spans()
			if len(got) != len(naive) {
				t.Fatalf("capacity %d, %d emitted: %d spans, want %d", capacity, n, len(got), len(naive))
			}
			for i, s := range got {
				if s.ID != naive[i] {
					t.Fatalf("capacity %d, %d emitted: span %d has id %d, want %d", capacity, n, i, s.ID, naive[i])
				}
			}
			if want := uint64(max(0, n-capacity)); tr.Dropped() != want {
				t.Errorf("capacity %d, %d emitted: dropped %d, want %d", capacity, n, tr.Dropped(), want)
			}
		}
	}
}

// TestRingAllocatesByChunk: a large ring that holds a few spans has
// allocated its first chunk and its chunk table, and none of the other 255
// chunks the old whole-ring allocation paid for up front.
func TestRingAllocatesByChunk(t *testing.T) {
	chunkBytes := uint64(spanChunk * unsafe.Sizeof(SpanData{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr := NewTracer(1 << 18)
	for i := 0; i < 10; i++ {
		tr.Emit(SpanData{ID: tr.NextID()})
	}
	runtime.ReadMemStats(&after)
	// The first chunk, and less than one chunk's worth besides.
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*chunkBytes {
		t.Errorf("a 1<<18 ring holding 10 spans allocated %d bytes, want its first chunk and under one more (%d bytes each)", got, chunkBytes)
	}
	if n := len(tr.Spans()); n != 10 {
		t.Errorf("ring holds %d spans, want 10", n)
	}
}
