package main

import (
	"math"
	"math/bits"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be a measurement and not an anecdote.
const minBeyond = 10

// tailPercentile returns the value at percentile want (0 < want < 100) of
// the ascending samples, or — when fewer than minBeyond samples lie beyond
// that rank — at the highest percentile that still has minBeyond beyond it.
// The second result is the percentile actually reported.
func tailPercentile(sorted []int64, want float64) (value int64, got float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	exact := int(float64(n) * want / 100) // samples at or below the percentile
	rank := min(exact, n-minBeyond)
	if rank < 1 {
		// Too few samples for any percentile to have minBeyond beyond it:
		// the smallest sample is all that can be said.
		return sorted[0], 100 / float64(n)
	}
	got = want
	if rank != exact {
		got = 100 * float64(rank) / float64(n)
	}
	return sorted[rank-1], got
}

// median returns the middle value of vs (mean of the two middle values for
// an even count), 0 for none. vs is reordered.
func median(vs []float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	slices.Sort(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// histSub is how many equal buckets durHist cuts each power of two into.
const (
	histSubBits = 8
	histSub     = 1 << histSubBits
)

// betterQuartile returns the value a quarter of the way in from the better
// end of vs (the third best of ten). Interference from outside the benchmark
// only ever makes a part slower, and on a shared machine it comes in spells
// that can cover half a run, which a median does not see past; the quartile
// on the better side does, and is still not the single luckiest part. vs is
// reordered.
func betterQuartile(vs []float64, higherIsBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := len(vs) / 4
	if higherIsBetter {
		i = len(vs) - 1 - i
	}
	return vs[i]
}

// durHist is a log-linear histogram of durations in nanoseconds: values
// below histSub have a bucket each, and every power of two above is cut
// into histSub equal buckets, so a quantile read back is within 1/(2·histSub)
// of the true value. The traced run keeps one per span name, where holding
// every sample of every layer would cost more than the spans themselves.
type durHist struct {
	counts [(64 - histSubBits + 1) * histSub]uint32
	n      uint64
}

func (h *durHist) add(ns int64) {
	v := uint64(max(ns, 0))
	b := int(v)
	if v >= histSub {
		exp := bits.Len64(v) - 1 - histSubBits // v>>exp lies in [histSub, 2·histSub)
		b = exp*histSub + int(v>>uint(exp))
	}
	h.counts[b]++
	h.n++
}

// quantile returns the midpoint of the bucket holding the sample of rank
// q·n (0 < q <= 1), 0 for an empty histogram.
func (h *durHist) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for b, c := range h.counts {
		seen += uint64(c)
		if c == 0 || seen < rank {
			continue
		}
		if b < 2*histSub {
			return float64(b)
		}
		exp := uint(b/histSub - 1)
		lo := uint64(histSub+b%histSub) << exp
		return float64(lo) + float64(uint64(1)<<exp)/2
	}
	return 0
}
