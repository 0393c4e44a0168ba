package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"

	"activepages/internal/sim"
)

// histBuckets is the number of log2 latency buckets: bucket 0 holds zero
// durations, bucket i (i >= 1) holds durations in [2^(i-1), 2^i) picoseconds.
// 64 value buckets cover the full range of sim.Duration.
const histBuckets = 65

// Histogram is a fixed-bucket log2 latency histogram. Components record
// simulated durations into it on paths that are already off the scalar-hit
// fast path (miss fills, bus transfers, DRAM accesses, dispatches), so
// recording is a shift and two increments and never allocates. A nil
// *Histogram ignores observations, mirroring the Registry's nil-safety
// contract.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     sim.Duration
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketOf maps a duration to its log2 bucket index.
func bucketOf(d sim.Duration) int { return bits.Len64(uint64(d)) }

// Observe records one duration. A nil histogram ignores it.
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(d)]++
	h.count++
	h.sum += d
}

// HistCheckpoint is a value snapshot of a histogram's contents, used by the
// stream-folding layer to capture per-period deltas and replay them in
// closed form. It is a comparable value type: two checkpoints are equal iff
// the histogram contents were identical.
type HistCheckpoint struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     sim.Duration
}

// Checkpoint captures the histogram's current contents. A nil histogram
// yields the zero checkpoint.
func (h *Histogram) Checkpoint() HistCheckpoint {
	if h == nil {
		return HistCheckpoint{}
	}
	return HistCheckpoint{buckets: h.buckets, count: h.count, sum: h.sum}
}

// Sub returns the element-wise difference c - prev. It is only meaningful
// when prev was captured from the same histogram at an earlier time.
func (c HistCheckpoint) Sub(prev HistCheckpoint) HistCheckpoint {
	d := HistCheckpoint{count: c.count - prev.count, sum: c.sum - prev.sum}
	for i := range c.buckets {
		d.buckets[i] = c.buckets[i] - prev.buckets[i]
	}
	return d
}

// AddDelta adds the checkpoint delta d to the histogram times over. The
// result is exactly what times repetitions of the recorded period would
// have observed. A nil histogram ignores it.
func (h *Histogram) AddDelta(d HistCheckpoint, times uint64) {
	if h == nil || times == 0 {
		return
	}
	for i, c := range d.buckets {
		h.buckets[i] += c * times
	}
	h.count += d.count * times
	h.sum += d.sum * sim.Duration(times)
}

// Count reports how many durations have been recorded.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// bucketUpperPS is the inclusive upper bound of bucket i in picoseconds:
// the value every sample in the bucket is reported as (quantiles are
// upper-bound estimates, conservative by at most 2x).
func bucketUpperPS(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return 1<<uint(i) - 1
}

// HistSummary condenses one histogram into the quantities the attribution
// report prints. Quantile values are bucket upper bounds in nanoseconds.
type HistSummary struct {
	Name  string
	Count int64
	SumNS int64
	P50   float64
	P95   float64
	P99   float64
	Max   float64
}

// MeanNS reports the exact mean in nanoseconds (sum is exact, unlike the
// bucketed quantiles).
func (h HistSummary) MeanNS() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNS) / float64(h.Count)
}

// summarize computes quantiles from raw bucket counts.
func summarize(name string, buckets []int64, count, sumNS int64) HistSummary {
	s := HistSummary{Name: name, Count: count, SumNS: sumNS}
	if count == 0 {
		return s
	}
	quantile := func(q float64) float64 {
		rank := int64(math.Ceil(q * float64(count)))
		if rank < 1 {
			rank = 1
		}
		var cum int64
		for i, c := range buckets {
			cum += c
			if cum >= rank {
				return float64(bucketUpperPS(i)) / float64(sim.Nanosecond)
			}
		}
		return float64(bucketUpperPS(len(buckets)-1)) / float64(sim.Nanosecond)
	}
	s.P50 = quantile(0.50)
	s.P95 = quantile(0.95)
	s.P99 = quantile(0.99)
	for i := len(buckets) - 1; i >= 0; i-- {
		if buckets[i] > 0 {
			s.Max = float64(bucketUpperPS(i)) / float64(sim.Nanosecond)
			break
		}
	}
	return s
}

// Histogram snapshot keys. A histogram registered under name folds into its
// registry snapshot as name+".h.bNN" (count of bucket NN, only nonzero
// buckets appear), name+".h.count", and name+".h.sum_ns". Bucket counts are
// plain summed counters, so snapshot merging preserves histograms exactly.
const (
	histBucketInfix = ".h.b"
	histCountSuffix = ".h.count"
	histSumSuffix   = ".h.sum_ns"
)

// fold adds the histogram's buckets to snapshot s under name.
func (h *Histogram) fold(s Snapshot, name string) {
	if h == nil {
		return
	}
	h.Checkpoint().fold(s, name)
}

// fold adds the checkpoint's buckets to snapshot s under name. Empty
// checkpoints contribute no keys.
func (c HistCheckpoint) fold(s Snapshot, name string) {
	if c.count == 0 {
		return
	}
	for i, n := range c.buckets {
		if n > 0 {
			s[fmt.Sprintf("%s%s%02d", name, histBucketInfix, i)] += int64(n)
		}
	}
	s[name+histCountSuffix] += int64(c.count)
	s[name+histSumSuffix] += int64(c.sum / sim.Nanosecond)
}

// Histograms reconstructs every histogram embedded in the snapshot's
// ".h.*" keys and summarizes each, sorted by name.
func (s Snapshot) Histograms() []HistSummary {
	type raw struct {
		buckets [histBuckets]int64
		count   int64
		sumNS   int64
	}
	found := make(map[string]*raw)
	get := func(name string) *raw {
		r := found[name]
		if r == nil {
			r = &raw{}
			found[name] = r
		}
		return r
	}
	for k, v := range s {
		if i := strings.LastIndex(k, histBucketInfix); i >= 0 {
			var b int
			if _, err := fmt.Sscanf(k[i+len(histBucketInfix):], "%d", &b); err == nil && b >= 0 && b < histBuckets {
				get(k[:i]).buckets[b] = v
			}
			continue
		}
		if name, ok := strings.CutSuffix(k, histCountSuffix); ok {
			get(name).count = v
			continue
		}
		if name, ok := strings.CutSuffix(k, histSumSuffix); ok {
			get(name).sumNS = v
		}
	}
	names := make([]string, 0, len(found))
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]HistSummary, 0, len(names))
	for _, name := range names {
		r := found[name]
		out = append(out, summarize(name, r.buckets[:], r.count, r.sumNS))
	}
	return out
}
