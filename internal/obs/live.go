// Live mode: metrics that are safe to read while the measured code is
// still running.
//
// The base registry contract is pull-after-completion — components register
// closures over plain counters they mutate on the simulation hot path, and
// a Snapshot is taken only once the run has finished. That contract is
// wrong for a long-running service: an HTTP scrape arrives *while* workers
// mutate the metrics, so every registered reader must be safe against
// concurrent writers.
//
// The Live* types provide that: LiveCounter and LiveGauge are atomics, and
// LiveHistogram is lock-striped so concurrent observers rarely contend and
// a snapshot (which locks each stripe in turn) never tears a bucket. A
// registry whose every registration is backed by a Live* type is safe to
// Snapshot concurrently with metric updates; the simulator's per-run
// registries remain pull-after-completion and are snapshotted exactly once,
// after the run exits, before being merged into any live aggregate.
package obs

import (
	"sync"
	"sync/atomic"

	"activepages/internal/sim"
)

// LiveCounter is a monotonically increasing counter safe for concurrent
// increment and read. The zero value is ready to use.
type LiveCounter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *LiveCounter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *LiveCounter) Add(n uint64) { c.v.Add(n) }

// Load reads the current count.
func (c *LiveCounter) Load() uint64 { return c.v.Load() }

// LiveGauge is a point-in-time level safe for concurrent update and read.
// The zero value is ready to use.
type LiveGauge struct {
	v atomic.Int64
}

// Add moves the level by delta (negative deltas allowed).
func (g *LiveGauge) Add(delta int64) { g.v.Add(delta) }

// Load reads the current level.
func (g *LiveGauge) Load() int64 { return g.v.Load() }

// liveStripes is the stripe count of a LiveHistogram: a small power of two,
// enough that a handful of concurrent observers (HTTP handlers, pool
// workers) rarely share a lock.
const liveStripes = 8

// histStripe pads each stripe onto its own cache lines so striping actually
// decouples the observers.
type histStripe struct {
	mu      sync.Mutex
	buckets [histBuckets]uint64
	count   uint64
	sum     sim.Duration
	_       [64]byte
}

// LiveHistogram is a log2 latency histogram (same buckets as Histogram)
// that is safe to observe from many goroutines and to snapshot while
// observations are in flight. Observers are distributed round-robin across
// lock stripes; a snapshot locks one stripe at a time, so it never blocks
// all observers at once and never reads a torn bucket/count/sum triple.
// The zero value is ready to use, and a nil *LiveHistogram ignores every
// observation, mirroring Histogram's contract.
type LiveHistogram struct {
	next    atomic.Uint32
	stripes [liveStripes]histStripe
}

// NewLiveHistogram returns an empty live histogram.
func NewLiveHistogram() *LiveHistogram { return &LiveHistogram{} }

// Observe records one duration. Safe for concurrent use; a nil histogram
// ignores it.
func (h *LiveHistogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	s := &h.stripes[h.next.Add(1)&(liveStripes-1)]
	s.mu.Lock()
	s.buckets[bucketOf(d)]++
	s.count++
	s.sum += d
	s.mu.Unlock()
}

// Checkpoint captures the histogram's current contents, summing the
// stripes. Each stripe is internally consistent (locked while copied), so
// the checkpoint's count always equals the sum of its buckets even when
// observers are concurrently recording.
func (h *LiveHistogram) Checkpoint() HistCheckpoint {
	var c HistCheckpoint
	if h == nil {
		return c
	}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for b, n := range s.buckets {
			c.buckets[b] += n
		}
		c.count += s.count
		c.sum += s.sum
		s.mu.Unlock()
	}
	return c
}

// Count reports how many durations have been recorded.
func (h *LiveHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.Checkpoint().count
}

// fold adds the histogram's buckets to snapshot s under name, implementing
// the same snapshot keys as Histogram.fold.
func (h *LiveHistogram) fold(s Snapshot, name string) {
	if h == nil {
		return
	}
	c := h.Checkpoint()
	c.fold(s, name)
}
