package bench

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestHistBucketRoundTrip: bucketValue must be histBucket's lower edge —
// every bucket's edge maps back to that bucket, and indices are monotone in
// the value.
func TestHistBucketRoundTrip(t *testing.T) {
	for b := 0; b < histBuckets; b++ {
		v := bucketValue(b)
		if got := histBucket(v); got != b {
			t.Fatalf("bucketValue(%d) = %d, histBucket maps it to %d", b, v, got)
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, histSub - 1, histSub, histSub + 1, 4*histSub + 100, 1 << 20, 1<<40 + 12345, 1<<63 + 1} {
		b := histBucket(v)
		if b <= prev && v != 0 {
			t.Fatalf("histBucket(%d) = %d not monotone (prev %d)", v, b, prev)
		}
		if low := bucketValue(b); low > v {
			t.Fatalf("bucket %d lower edge %d exceeds member %d", b, low, v)
		}
		prev = b
	}
}

// TestHistQuantiles: known distribution, bounded relative error, monotone
// quantiles, negative clamp, empty histogram.
func TestHistQuantiles(t *testing.T) {
	var h latencyHist
	if h.quantile(0.5) != 0 {
		t.Fatal("empty histogram has a non-zero median")
	}
	// 1000 samples of 1ms and 10 of 100ms: p50 ~ 1ms, p999+ reaches 100ms.
	for i := 0; i < 1000; i++ {
		h.record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.record(100 * time.Millisecond)
	}
	h.record(-time.Second) // clamps to zero, lands in bucket 0
	p50, p99, p999 := h.quantile(0.50), h.quantile(0.99), h.quantile(0.999)
	if p50 > p99 || p99 > p999 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
	// Midpoint reporting bounds the absolute relative error at 1/(2*histSub)
	// on either side of the true value.
	relErr := func(got time.Duration, want time.Duration) float64 {
		rel := float64(got-want) / float64(want)
		if rel < 0 {
			rel = -rel
		}
		return rel
	}
	if rel := relErr(p50, time.Millisecond); rel > 1.0/histSub {
		t.Fatalf("p50 = %v, want ~1ms within 1/%d relative error", p50, histSub)
	}
	if rel := relErr(p999, 100*time.Millisecond); rel > 1.0/histSub {
		t.Fatalf("p999 = %v, want ~100ms within 1/%d relative error", p999, histSub)
	}
	if got, want := h.total.Load(), uint64(1011); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

// TestHistConcurrentRecord: recorders from several goroutines must neither
// race (run under -race) nor lose samples.
func TestHistConcurrentRecord(t *testing.T) {
	var h latencyHist
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.record(time.Duration(rng.Int63n(int64(time.Second))))
			}
		}(int64(w))
	}
	wg.Wait()
	if got := h.total.Load(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	if p1, p99 := h.quantile(0.01), h.quantile(0.99); p1 > p99 {
		t.Fatalf("p1=%v > p99=%v", p1, p99)
	}
}
