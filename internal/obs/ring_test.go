package obs

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// testGroup is a span group whose span i names its group and index.
type testGroup struct {
	tag uint64
	n   int
}

func (g testGroup) Len() int { return g.n }

func (g testGroup) Span(i int) SpanData {
	return SpanData{Trace: g.tag, Parent: uint64(i), Name: "group"}
}

// naiveRing is the ring's specification: every span, groups expanded, in
// a slice that keeps the newest capacity. It keeps what tells spans apart.
type naiveRing struct {
	capacity int
	spans    []naiveSpan
	ids      uint64 // IDs minted
	dropped  uint64
}

type naiveSpan struct {
	id, trace, parent uint64
	name              string
}

func naiveOf(d SpanData) naiveSpan { return naiveSpan{d.ID, d.Trace, d.Parent, d.Name} }

// emit feeds tr and the naive ring the same spans: a single span when
// group < 0, else a group of that many spans.
func (r *naiveRing) emit(tr *Tracer, group int) {
	if group < 0 {
		d := SpanData{ID: tr.NextID(), Name: "single"}
		tr.Emit(d)
		r.spans = append(r.spans, naiveOf(d))
		r.ids++
	} else {
		g := testGroup{tag: r.ids, n: group}
		tr.EmitGroup(g)
		lo := max(0, group-r.capacity) // the spans the group itself pushes out
		for i := lo; i < group; i++ {
			d := g.Span(i)
			d.ID = r.ids + 1 + uint64(i)
			r.spans = append(r.spans, naiveOf(d))
		}
		r.ids += uint64(group)
		r.dropped += uint64(lo)
	}
	if over := len(r.spans) - r.capacity; over > 0 {
		r.spans = r.spans[over:]
		r.dropped += uint64(over)
	}
}

// check compares tr with the naive ring: the same spans in the same order,
// the same next ID, the same Dropped count.
func (r *naiveRing) check(t *testing.T, tr *Tracer, what string) {
	t.Helper()
	got := tr.Spans()
	if len(got) != len(r.spans) {
		t.Fatalf("%s: %d spans, want %d", what, len(got), len(r.spans))
	}
	for i := range got {
		if g := naiveOf(got[i]); g != r.spans[i] {
			t.Fatalf("%s: span %d is %+v, want %+v", what, i, g, r.spans[i])
		}
	}
	if tr.Dropped() != r.dropped {
		t.Fatalf("%s: dropped %d, want %d", what, tr.Dropped(), r.dropped)
	}
	r.ids++ // NextID mints one
	if id := tr.NextID(); id != r.ids {
		t.Fatalf("%s: next ID %d, want %d", what, id, r.ids)
	}
}

// ringCapacities sit on the chunk edges.
var ringCapacities = []int{1, 2, spanChunk - 1, spanChunk, spanChunk + 1, 3*spanChunk + 5}

// TestRingBoundaries checks the chunked ring against a naive one at every
// capacity and fill that sits on a chunk edge: Spans is the newest
// min(n, capacity) spans oldest first, and Dropped counts the rest. It
// does so for single spans, for groups of every size around the capacity,
// and for groups among single spans, where a group's front is evicted
// span by span.
func TestRingBoundaries(t *testing.T) {
	for _, capacity := range ringCapacities {
		for _, n := range []int{0, capacity - 1, capacity, capacity + 1, 2*capacity + 3} {
			tr, naive := NewTracer(capacity), &naiveRing{capacity: capacity}
			for range n {
				naive.emit(tr, -1)
			}
			naive.check(t, tr, fmt.Sprintf("capacity %d, %d emitted", capacity, n))

			// A group of n after one single span, then the spans that push
			// it out one at a time.
			tr, naive = NewTracer(capacity), &naiveRing{capacity: capacity}
			naive.emit(tr, -1)
			naive.emit(tr, n)
			naive.check(t, tr, fmt.Sprintf("capacity %d, a group of %d", capacity, n))
			for i := range min(n, capacity) + 1 {
				naive.emit(tr, -1)
				if i < 3 || i%spanChunk == 0 {
					naive.check(t, tr, fmt.Sprintf("capacity %d, a group of %d, %d singles after it", capacity, n, i+1))
				}
			}
			naive.check(t, tr, fmt.Sprintf("capacity %d, a group of %d, pushed out", capacity, n))

			// Groups evicting groups: sizes straddling a chunk and the ring.
			tr, naive = NewTracer(capacity), &naiveRing{capacity: capacity}
			for _, g := range []int{n, 1, spanChunk, capacity - 1, 0, capacity + 1, 2, capacity} {
				naive.emit(tr, g)
				naive.check(t, tr, fmt.Sprintf("capacity %d, groups after %d", capacity, n))
			}
		}
	}
}

// FuzzTracerRing feeds the ring random interleavings of single spans and
// groups at a capacity on a chunk edge and compares it with a naive ring
// of the expanded spans after every few operations.
func FuzzTracerRing(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3})
	f.Add(uint8(3), []byte{255, 3, 7, 0, 0, 11, 128, 64})
	f.Add(uint8(5), []byte{3, 3, 3, 2, 2, 0, 1, 127})
	f.Fuzz(func(t *testing.T, c uint8, ops []byte) {
		capacity := ringCapacities[int(c)%len(ringCapacities)]
		ops = ops[:min(len(ops), 64)] // an op may emit twice the ring
		tr, naive := NewTracer(capacity), &naiveRing{capacity: capacity}
		for i, op := range ops {
			switch op % 4 {
			case 0, 1:
				naive.emit(tr, -1)
			case 2:
				naive.emit(tr, int(op>>2)%9) // small, empty included
			case 3:
				naive.emit(tr, capacity*int(op>>2)/32) // up to twice the ring
			}
			if i%8 == 7 || i == len(ops)-1 {
				naive.check(t, tr, fmt.Sprintf("capacity %d, after op %d", capacity, i))
			}
		}
	})
}

// TestRingAllocatesByChunk: a large ring that holds a few spans has
// allocated its first chunk and its chunk table, and none of the other 255
// chunks the old whole-ring allocation paid for up front.
func TestRingAllocatesByChunk(t *testing.T) {
	chunkBytes := uint64(spanChunk * unsafe.Sizeof(slot{}))
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
