package runtime

import (
	"bytes"
	"slices"
	"sync"
	"unsafe"

	"tpusim/internal/integrity"
)

// weightImages is a server's one copy of each distinct weight image. Every
// compile on the server's drivers offers its image here: a byte-identical
// image already held is adopted in its place, so the server's TPUs running
// one model hold its weights once; any other image is published for later
// compiles to adopt. Images match by content, not by model name, because
// each device calibrates on its own first batch and two calibrations agree
// only when those batches do. Sharing is safe because nothing writes a
// program's weight image: a device's weight flips go to tile copies of its
// own (memory.GuardedWeights).
type weightImages struct {
	mu   sync.Mutex
	held map[imageKey][]*sharedImage
}

// imageKey narrows the search for an equal image: length and CRC-32C.
type imageKey struct {
	n   int
	crc uint32
}

// sharedImage is one held image and how many cached programs use it.
type sharedImage struct {
	key     imageKey
	bytes   []int8
	holders int
}

// adopt returns the held image byte-identical to img, publishing img when
// none is, and counts the caller as a holder until it calls release. The
// lookup and the publish are one step under the lock, so concurrent cold
// compiles of one model share too.
func (w *weightImages) adopt(img []int8) *sharedImage {
	key := imageKey{len(img), integrity.CRC(img)}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.held[key] {
		if bytes.Equal(asBytes(s.bytes), asBytes(img)) {
			s.holders++
			return s
		}
	}
	s := &sharedImage{key: key, bytes: img, holders: 1}
	w.held[key] = append(w.held[key], s)
	return s
}

// release drops one holder of s, and the image once nothing holds it.
func (w *weightImages) release(s *sharedImage) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s.holders--; s.holders > 0 {
		return
	}
	same := w.held[s.key]
	i := slices.Index(same, s)
	same = slices.Delete(same, i, i+1)
	if len(same) == 0 {
		delete(w.held, s.key)
	} else {
		w.held[s.key] = same
	}
}

// size returns the bytes of every image held, each counted once however
// many programs share it.
func (w *weightImages) size() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n uint64
	for key, same := range w.held {
		n += uint64(key.n * len(same))
	}
	return n
}

// asBytes views int8 data as bytes, for bytes.Equal's memory-speed compare.
func asBytes(s []int8) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}
