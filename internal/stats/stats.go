// Package stats provides the summary statistics the paper's evaluation
// uses: geometric and weighted means (Table 6, Figure 9) and percentiles
// (Table 4's 99th-percentile response times).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// GeometricMean returns the geometric mean of strictly positive values; NaN
// is not one.
// Architects use it "when they don't know the actual mix of programs that
// will be run" (Section 4).
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geometric mean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("stats: geometric mean needs positive values, got %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// WeightedMean returns the arithmetic mean of xs weighted by ws. The paper's
// weighted mean (Table 6 "WM") uses the actual deployment mix of Table 1. A
// NaN value or weight is an error, not a NaN mean.
func WeightedMean(xs, ws []float64) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ws) {
		return 0, fmt.Errorf("stats: weighted mean needs equal non-empty slices, got %d and %d", len(xs), len(ws))
	}
	var num, den float64
	for i := range xs {
		if !(ws[i] >= 0) {
			return 0, fmt.Errorf("stats: weight %v is negative or NaN", ws[i])
		}
		if math.IsNaN(xs[i]) {
			return 0, fmt.Errorf("stats: weighted mean of a NaN value")
		}
		num += xs[i] * ws[i]
		den += ws[i]
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: weights sum to zero")
	}
	return num / den, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	qs, err := Percentiles(xs, p)
	if err != nil {
		return 0, err
	}
	return qs[0], nil
}

// Percentiles returns the ps-th percentiles of xs, in the order asked, from
// one copy of xs (see PercentilesInPlace).
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	s := make([]float64, len(xs))
	copy(s, xs)
	return PercentilesInPlace(s, ps...)
}

// PercentilesInPlace is Percentiles on s itself, which it reorders: for a
// caller that has just built s as its own copy. It does not sort s: it
// selects only the ranks the interpolation reads, largest first, so each
// smaller rank is selected inside the prefix the larger one left. The order
// is sort.Float64s's (NaN first), so every value is the one a sorted copy
// would give.
func PercentilesInPlace(s []float64, ps ...float64) ([]float64, error) {
	if len(s) == 0 {
		return nil, fmt.Errorf("stats: percentile of empty slice")
	}
	for _, p := range ps {
		if !(p >= 0 && p <= 100) {
			return nil, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
		}
	}
	// Select the largest rank not yet selected until none is left: s[bound:]
	// holds selected ranks, s[:bound] the values below them.
	for bound := len(s); ; {
		k := -1
		for _, p := range ps {
			_, lo, hi := rank(p, len(s))
			if hi < bound {
				k = max(k, hi)
			} else if lo < bound {
				k = max(k, lo)
			}
		}
		if k < 0 {
			break
		}
		selectRank(s[:bound], k)
		bound = k
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		r, lo, hi := rank(p, len(s))
		out[i] = s[lo]
		if lo != hi {
			frac := r - float64(lo)
			out[i] = s[lo]*(1-frac) + s[hi]*frac
		}
	}
	return out, nil
}

// ChunkedPercentiles returns the ps-th percentiles of the values in chunks,
// taken as one sequence, bit-identical to Percentiles on their
// concatenation. It only reads the chunks, and copies only values near the
// ranks the interpolation reads.
//
// On the domain below, float64 bit patterns read as unsigned integers are
// ordered as the values are, so a bucket of consecutive patterns holds
// consecutive ranks. The first pass counts the values by top bucket: the
// exponent and top 8 mantissa bits, 256 buckets an octave from 2^-24 up,
// clamped to 8192 buckets at both ends. It also finds the smallest and
// largest pattern and the low bits every pattern shares. The counts name
// the bucket of each rank the interpolation reads. A bucket of one pattern
// gives its ranks' value outright; one holding more than a sixteenth of the
// values is split into 8192 by another counting pass; any other is copied
// in a last pass, and selection on the copies finishes as
// PercentilesInPlace does. So at most a sixteenth of the values is copied
// per rank read, and a log of a few distinct values, as a deterministic
// simulation writes, is not copied at all.
//
// The domain is finite values >= +0, where no two equal values differ in
// bits; a negative value, -0, NaN or ±Inf is an error, not a guess at where
// Percentiles would put it.
func ChunkedPercentiles(chunks [][]float64, ps ...float64) ([]float64, error) {
	for _, p := range ps {
		if !(p >= 0 && p <= 100) {
			return nil, fmt.Errorf("stats: percentile %v out of [0, 100]", p)
		}
	}
	i := slices.IndexFunc(chunks, func(c []float64) bool { return len(c) > 0 })
	if i < 0 {
		return nil, fmt.Errorf("stats: percentile of empty slice")
	}
	var counts [buckets]int
	first := math.Float64bits(chunks[i][0])
	n, low, high, differ := 0, first, first, uint64(0)
	for _, c := range chunks {
		for _, x := range c {
			b := math.Float64bits(x)
			low, high, differ = min(low, b), max(high, b), differ|(b^first)
			counts[topBucket(b)]++
		}
		n += len(c)
	}
	// Every pattern outside the domain is at or above +Inf's.
	if high >= 0x7FF0_0000_0000_0000 {
		return nil, fmt.Errorf("stats: chunked percentile of %v: values must be finite and >= +0", math.Float64frombits(high))
	}
	// Every pattern is first's in its low shared bits, so a bucket no wider
	// than 1<<shared holds one pattern: the one with first's low bits.
	shared := uint(bits.TrailingZeros64(differ))
	var targetBuf [4]int
	targets := targetBuf[:0]
	for _, p := range ps {
		_, lo, hi := rank(p, n)
		targets = append(targets, lo, hi)
	}

	// Split buckets until each one holding a target rank is a leaf: one
	// pattern, or few enough values to copy.
	var workBuf, leafBuf [4]bucket
	work := pick(workBuf[:0], counts[:], targets, 0, topEdge, low, high+1)
	leaves := leafBuf[:0]
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		if w.one = (w.end-w.base-1)>>shared == 0; w.one {
			w.base += (first - w.base) & (1<<shared - 1)
		}
		if w.one || w.n <= n/16 {
			leaves = append(leaves, w)
			continue
		}
		shift := uint(max(bits.Len64(w.end-w.base-1), bucketBits+int(shared)) - bucketBits)
		clear(counts[:])
		for _, c := range chunks {
			for _, x := range c {
				if d := math.Float64bits(x) - w.base; d < w.end-w.base {
					counts[d>>shift]++
				}
			}
		}
		edge := func(j int) uint64 { return w.base + uint64(j)<<shift }
		work = pick(work, counts[:(w.end-w.base-1)>>shift+1], targets, w.rank, edge, w.base, w.end)
	}

	// Lay the leaves out in s in rank order: a one-pattern leaf as its one
	// value, any other as its members, copied in one last pass.
	slices.SortFunc(leaves, func(a, b bucket) int { return a.rank - b.rank })
	var copyBuf [4]bucket
	var fillBuf [4]int
	copies, fill, size := copyBuf[:0], fillBuf[:0], 0
	for i := range leaves {
		leaves[i].off = size
		if leaves[i].one {
			size++
		} else {
			copies, fill = append(copies, leaves[i]), append(fill, size)
			size += leaves[i].n
		}
	}
	s := make([]float64, size)
	for _, l := range leaves {
		if l.one {
			s[l.off] = math.Float64frombits(l.base)
		}
	}
	if len(copies) > 0 {
		// Mark each top bucket holding a leaf to copy with its first such
		// leaf, so a value outside them costs one lookup.
		for j := range counts {
			counts[j] = -1
		}
		for i := len(copies) - 1; i >= 0; i-- {
			counts[topBucket(copies[i].base)] = i
		}
		for _, c := range chunks {
			for _, x := range c {
				b := math.Float64bits(x)
				for i := counts[topBucket(b)]; i >= 0 && i < len(copies); i++ {
					if b-copies[i].base < copies[i].end-copies[i].base {
						s[fill[i]] = x
						fill[i]++
						break
					}
				}
			}
		}
	}
	return selectPercentiles(s, n, leaves, ps), nil
}

// ChunkedPercentiles' top buckets: a pattern's biased exponent and top
// topBits mantissa bits, less those of 2^-24, clamped to [0, buckets).
const (
	bucketBits = 13
	buckets    = 1 << bucketBits // a 64 KiB table of counts on the stack
	topBits    = 8
	topFloor   = (1023 - 24) << topBits
)

// topBucket is the top bucket of pattern b.
func topBucket(b uint64) int {
	return min(max(int(b>>(52-topBits))-topFloor, 0), buckets-1)
}

// topEdge is the smallest pattern of top bucket j, for j in [0, buckets];
// buckets' edge is past every pattern.
func topEdge(j int) uint64 {
	switch j {
	case 0:
		return 0
	case buckets:
		return math.MaxUint64
	}
	return uint64(topFloor+j) << (52 - topBits)
}

// bucket is a run of ChunkedPercentiles' values: the n whose patterns lie
// in [base, end), the smallest of rank rank among all the values. A leaf
// sits in s from off: all its members, or, when one says they share one
// pattern, that pattern's value once, base then being that pattern.
type bucket struct {
	base, end    uint64
	rank, n, off int
	one          bool
}

// pick appends to work each bucket of counts that holds a target rank.
// Bucket j holds the patterns [edge(j), edge(j+1)) within [from, to), and
// the ranks from below plus the counts before it.
func pick(work []bucket, counts []int, targets []int, below int, edge func(int) uint64, from, to uint64) []bucket {
	last := -1
	for _, k := range targets {
		last = max(last, k)
	}
	for j, c := range counts {
		if below > last {
			break
		}
		if c == 0 {
			continue
		}
		for _, k := range targets {
			if below <= k && k < below+c {
				work = append(work, bucket{base: max(edge(j), from), end: min(edge(j+1), to), rank: below, n: c})
				break
			}
		}
		below += c
	}
	return work
}

// selectPercentiles interpolates the ps-th percentiles of n values from s,
// which holds ChunkedPercentiles' leaves in rank order: rank k of the n is
// rank off+k-rank of s for the leaf k falls in, or off itself for a
// one-pattern leaf. The selection and the interpolation are
// PercentilesInPlace's, on those ranks of s, so every value is the one it
// would give; they are not shared so that its loop stays as fast as it is.
func selectPercentiles(s []float64, n int, leaves []bucket, ps []float64) []float64 {
	at := func(k int) int {
		l := 0
		for k >= leaves[l].rank+leaves[l].n {
			l++
		}
		if leaves[l].one {
			return leaves[l].off
		}
		return leaves[l].off + k - leaves[l].rank
	}
	// Select the largest rank not yet selected until none is left: s[bound:]
	// holds selected ranks, s[:bound] the values below them.
	for bound := len(s); ; {
		k := -1
		for _, p := range ps {
			_, lo, hi := rank(p, n)
			if lo, hi = at(lo), at(hi); hi < bound {
				k = max(k, hi)
			} else if lo < bound {
				k = max(k, lo)
			}
		}
		if k < 0 {
			break
		}
		selectRank(s[:bound], k)
		bound = k
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		r, lo, hi := rank(p, n)
		out[i] = s[at(lo)]
		if lo != hi {
			frac := r - float64(lo)
			out[i] = s[at(lo)]*(1-frac) + s[at(hi)]*frac
		}
	}
	return out
}

// rank is where the p-th percentile of n sorted values falls, and the two
// indices it interpolates between.
func rank(p float64, n int) (r float64, lo, hi int) {
	r = p / 100 * float64(n-1)
	return r, int(math.Floor(r)), int(math.Ceil(r))
}

// less is sort.Float64s's order: NaN before every number.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// insertionMax is the range length below which selectRank sorts by insertion.
const insertionMax = 16

// selectRank moves the value of rank k (under less) to s[k], with s[:k] ≤ s[k]
// ≤ s[k+1:]. It is an introselect: median-of-3 quickselect, insertion sort
// for a short range, and after 2·log2(n) partition rounds a sort of what is
// left, which bounds the worst case at O(n log n). It reports whether it fell
// back to that sort.
func selectRank(s []float64, k int) (sorted bool) {
	for rounds := 2 * bits.Len(uint(len(s))); len(s) > insertionMax; rounds-- {
		if k == len(s)-1 {
			// The top rank is the maximum: one scan, no partition. Every
			// floor(rank) selected just below its ceil(rank) lands here.
			m := 0
			for i := range s {
				if less(s[m], s[i]) {
					m = i
				}
			}
			s[m], s[k] = s[k], s[m]
			return false
		}
		if rounds == 0 {
			slices.Sort(s)
			return true
		}
		p := partition(s)
		switch {
		case k < p:
			s = s[:p]
		case k > p:
			s, k = s[p+1:], k-p-1
		default:
			return false
		}
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return false
}

// partition picks the median of s's first, middle and last values as the
// pivot and partitions around it (Hoare: both scans stop on an equal value,
// so a run of ties splits evenly). It returns the pivot's final index p:
// s[:p] ≤ s[p] ≤ s[p+1:].
func partition(s []float64) int {
	n := len(s)
	m := n / 2
	if less(s[m], s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if less(s[n-1], s[m]) {
		s[n-1], s[m] = s[m], s[n-1]
		if less(s[m], s[0]) {
			s[m], s[0] = s[0], s[m]
		}
	}
	// s[0] ≤ s[m] ≤ s[n-1]. The pivot goes to s[0], where it stops the
	// downward scan; s[n-1] stops the upward one.
	s[0], s[m] = s[m], s[0]
	pivot := s[0]
	i, j := 0, n
	for {
		for i++; less(s[i], pivot); i++ {
		}
		for j--; less(pivot, s[j]); j-- {
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	s[0], s[j] = s[j], s[0]
	return j
}
