package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear ("HDR-style") over int64 nanoseconds.
// Durations below 2^subBits ns get one exact bucket each; above that, every
// power-of-two octave is split into 2^subBits linear sub-buckets, so a
// recorded value's bucket spans at most value/2^subBits — a bounded 12.5%
// relative error for quantile extraction, at ~4 KB per histogram. Plain
// log-2 buckets would halve the memory but double the worst-case quantile
// error to 100%; fixed linear buckets would need an a-priori latency range,
// which a service mixing ~100 ns cache hits with multi-second cold
// simulations does not have. That spread is the whole point: tail latency
// (the p99), not the mean, is what distinguishes a healthy service from a
// saturated one.
const (
	subBits    = 3
	subBuckets = 1 << subBits // linear sub-buckets per octave
	// numBuckets covers every non-negative int64: subBuckets exact low
	// buckets plus (63-subBits+1) octaves of subBuckets each.
	numBuckets = subBuckets + (63-subBits+1)*subBuckets
)

// Histogram is a fixed-size, lock-free latency histogram. Record is
// allocation-free and safe for concurrent use; reads (Quantile, Count,
// Sum) take a racy-but-monotone snapshot, which is the right trade for
// monitoring. The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64 // total recorded nanoseconds
}

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // position of the leading bit, >= subBits
	sub := int((v >> uint(e-subBits)) & (subBuckets - 1))
	return subBuckets + (e-subBits)*subBuckets + sub
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < subBuckets {
		return int64(i), int64(i) + 1
	}
	octave := (i - subBuckets) >> subBits
	sub := int64((i - subBuckets) & (subBuckets - 1))
	e := uint(octave + subBits)
	width := int64(1) << (e - subBits)
	lo = int64(1)<<e + sub*width
	return lo, lo + width
}

// Record adds one duration observation. Negative durations clamp to zero.
// It performs no allocation and takes no lock, so it is safe on request
// paths (it is still per-request machinery — keep it out of per-step
// simulation loops).
func (h *Histogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Since records the time elapsed since t0. It is the common instrumentation
// shape: t0 := time.Now(); defer h.Since(t0).
func (h *Histogram) Since(t0 time.Time) {
	h.Record(time.Since(t0))
}

// Count returns the total number of recorded observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total recorded duration.
func (h *Histogram) Sum() time.Duration {
	return time.Duration(h.sum.Load())
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded
// observations under the nearest-rank definition, linearly interpolated
// inside the bucket that holds the rank. Because the true rank value lies
// in the same bucket, the result is within 12.5% relative error of the
// exact sorted-sample quantile. It returns 0 when nothing was recorded or
// q is NaN.
func (h *Histogram) Quantile(q float64) time.Duration {
	if math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			// Position of the rank inside this bucket, in (0, 1].
			frac := float64(rank-cum) / float64(c)
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += c
	}
	// Unreachable: rank <= total and the buckets sum to total.
	return 0
}

// expositionBounds are the cumulative upper bounds (seconds) used for the
// Prometheus text rendering: one per octave from 128 ns to ~8.6 s, plus the
// implicit +Inf. The histogram keeps 8x finer resolution internally for
// quantiles; the scrape only needs stable, monotone bucket edges.
var expositionBounds = func() []float64 {
	const loExp, hiExp = 7, 33 // 2^7 ns = 128 ns .. 2^33 ns ~ 8.6 s
	b := make([]float64, 0, hiExp-loExp+1)
	for e := loExp; e <= hiExp; e++ {
		b = append(b, float64(int64(1)<<uint(e))/1e9)
	}
	return b
}()

// cumulative returns the cumulative observation counts at each exposition
// bound, followed by the total (the +Inf bucket).
func (h *Histogram) cumulative() []uint64 {
	cum := make([]uint64, len(expositionBounds)+1)
	var run uint64
	next := 0
	for i := range h.counts {
		lo, _ := bucketBounds(i)
		for next < len(expositionBounds) && float64(lo)/1e9 >= expositionBounds[next] {
			cum[next] = run
			next++
		}
		run += h.counts[i].Load()
	}
	for ; next <= len(expositionBounds); next++ {
		cum[next] = run
	}
	return cum
}

// QuantileFromCumulative extracts the q-quantile from a cumulative bucket
// encoding: bounds[i] is the inclusive upper bound of bucket i and cum[i]
// the number of observations at or below it, with cum's final extra entry
// the +Inf total. This is the read-side counterpart of the Prometheus
// rendering, for series recovered from a /metrics scrape by
// ParseHistograms (perfbench's scrape path; ScrapedHistogram.Quantile
// wraps it) — so its resolution is the scrape's (one octave),
// coarser than Histogram.Quantile on the live histogram. Returns 0 when
// the encoding is empty or malformed.
func QuantileFromCumulative(bounds []float64, cum []uint64, q float64) float64 {
	if len(cum) != len(bounds)+1 || len(bounds) == 0 || math.IsNaN(q) {
		return 0
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	lo := 0.0
	for i, b := range bounds {
		if cum[i] >= rank {
			var prev uint64
			if i > 0 {
				prev = cum[i-1]
			}
			frac := float64(rank-prev) / float64(cum[i]-prev)
			return lo + frac*(b-lo)
		}
		lo = b
	}
	// Rank falls in the +Inf bucket: report the last finite bound.
	return bounds[len(bounds)-1]
}
