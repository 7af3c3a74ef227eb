package obs

import "math"

// Latency histogram geometry: 72 geometric buckets from 10 us with 25%
// growth cover 10 us .. ~100 s, enough resolution to read a p99 against a
// 7 ms SLA without storing raw samples.
const (
	latBuckets = 72
	latLo      = 1e-5
	latGrowth  = 1.25
)

// Histogram is the one latency histogram: every registry (serve's
// per-model latencies, the cluster's latency components and windows)
// holds it by value, so all of them share the bucket geometry above and
// Emitter.Histogram renders them alike. It is plain data, and the caller
// provides locking.
type Histogram struct {
	counts   [latBuckets]uint64
	n        uint64
	sum, max float64
}

// Observe records one sample, in seconds.
func (h *Histogram) Observe(s float64) {
	h.counts[latBucket(s)]++
	h.n++
	h.sum += s
	if s > h.max {
		h.max = s
	}
}

// ObserveN records n identical samples with one bucket computation — the
// batch idiom: every request of a dispatched batch shares the device's
// service time, so the caller pays one log, not len(batch).
func (h *Histogram) ObserveN(s float64, n uint64) {
	if n == 0 {
		return
	}
	h.counts[latBucket(s)] += n
	h.n += n
	h.sum += s * float64(n)
	if s > h.max {
		h.max = s
	}
}

// Merge folds o's samples into h. Both histograms share the fixed bucket
// geometry, so the merge is exact — the windowed-series idiom's other
// half: accumulate the open window, then fold it into the cumulative
// histogram when the window closes.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observed samples.
func (h *Histogram) Count() uint64 { return h.n }

// Max returns the largest observed sample in seconds.
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the arithmetic mean in seconds (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Quantile interpolates the q-th quantile (0..1) from the buckets, clamped
// at the observed maximum so a sparse top bucket cannot overstate the tail.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := latBucketBounds(i)
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			if v > h.max && h.max > 0 {
				v = h.max
			}
			return v
		}
		cum = next
	}
	return h.max
}

// invLogGrowth caches 1/ln(latGrowth) so the hot bucket lookup pays one
// logarithm, not two.
var invLogGrowth = 1 / math.Log(latGrowth)

func latBucket(s float64) int {
	if s <= latLo {
		return 0
	}
	i := int(math.Log(s/latLo) * invLogGrowth)
	// i < 0 catches float overflow: for huge s, s/latLo is +Inf, the log is
	// +Inf, and the int conversion lands at the platform's min int — such a
	// sample belongs in the overflow bucket, not bucket 0.
	if i >= latBuckets || i < 0 {
		i = latBuckets - 1
	}
	return i
}

// latBucketBounds returns bucket i's [lo, hi) latency range in seconds.
func latBucketBounds(i int) (float64, float64) {
	lo := latLo * math.Pow(latGrowth, float64(i))
	if i == 0 {
		lo = 0
	}
	return lo, latLo * math.Pow(latGrowth, float64(i+1))
}
