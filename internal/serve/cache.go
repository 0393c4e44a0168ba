// Content-addressed run memoization. Every run the daemon executes is a
// pure function of its canonical spec: the simulator is deterministic
// (jobs-1-vs-8 byte-identical output is CI-pinned), so two requests with
// the same normalized (experiment, backend, quick, knobs) tuple produce
// the same output bytes, the same metrics snapshot, and the same
// per-benchmark groups. The memoCache exploits that twice:
//
//   - Completed runs are stored under their spec key in a byte-budgeted
//     lru.Cache, so a repeat submission completes at submit time —
//     same artifact bytes, near-zero execute span — without touching the
//     worker pool.
//   - In-flight runs are singleflighted: while a spec's leader run is
//     queued or executing, every duplicate submission attaches to the
//     leader (same run id, same eventual artifacts) instead of queueing
//     its own execution, so N concurrent identical submissions simulate
//     exactly once.
//
// The run cache sits above the machine-run result memo
// (run.CheckpointCache): two *distinct* specs that drive the same
// machines — say array with and without the regions table — still share
// machine runs one layer down.
// Spec keys are deliberately conservative: only defaulted knobs are
// normalized, never knobs an experiment happens to ignore.

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"activepages/internal/experiments"
	"activepages/internal/lru"
	"activepages/internal/obs"
)

// CacheResultHeader is set on every submit response to report how the
// result cache disposed of the submission: "hit" (served from the store),
// "dedup" (attached to an in-flight identical run), or "miss" (a cold run
// was queued). The fleet router reads it to attribute its own hit-rate.
const CacheResultHeader = "X-AP-Cache"

// DefaultCacheBudget bounds the result store's host memory. Run artifacts
// are small next to machine checkpoints — rendered tables plus a metrics
// snapshot are tens of kilobytes — so a quarter gigabyte holds thousands
// of distinct specs before LRU eviction engages.
const DefaultCacheBudget = 256 << 20

// cachedRunTraceEvents sizes the wall tracer of a cache-hit run. The whole
// cached lifecycle is two spans and two log lines, so a small fixed ring
// keeps the hit path allocation-light under fleet load.
const cachedRunTraceEvents = 16

// SpecKey returns the content address of a run request: a sha256 over the
// canonical spec. Normalization covers defaults only — an empty backend is
// the RADram default and an explicit page size equal to the scaled default
// is the default — so requests that dispatch identically key identically.
// Presentation knobs (regions, l2) are keyed verbatim even for experiments
// that ignore them: over-keying costs a redundant cold run, under-keying
// would serve the wrong artifact. Worker counts are excluded: output is
// pinned independent of the pool width.
func SpecKey(req Request) string {
	pb := req.PageBytes
	if pb == experiments.ScaledPageBytes {
		pb = 0
	}
	bk := req.Backend
	if bk == "" {
		bk = "radram"
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "v1|%s|quick=%t|pb=%d|regions=%t|l2=%t|backend=%s",
		req.Experiment, req.Quick, pb, req.Regions, req.L2, bk))
	return hex.EncodeToString(sum[:])
}

// cachedRun is one memoized result: exactly the artifacts a completed run
// serves. All fields are written once at store time and never mutated, so
// cache hits share them with the runs they complete.
type cachedRun struct {
	output  []byte
	metrics obs.Snapshot
	groups  map[string]obs.Snapshot
}

// memoCache is the server's run memoization state: the content-addressed
// result store plus the in-flight singleflight index. Submissions hold mu
// across both lookups so a spec is either cached, in flight, or cold,
// never ambiguously two of those. Both are nil when the cache is
// disabled.
type memoCache struct {
	mu      sync.Mutex
	results *lru.Cache[string, *cachedRun]
	// inflight maps a spec key to the id of its leader run from the moment
	// the leader is queued until it reaches a terminal state. Duplicate
	// submissions in that window return the leader's id.
	inflight map[string]string
}

func newMemoCache(enabled bool, budget uint64) *memoCache {
	if !enabled {
		return &memoCache{}
	}
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	return &memoCache{
		results:  lru.New[string](budget, artifactBytes),
		inflight: make(map[string]string),
	}
}

// lookupLocked returns the cached result for key, refreshing its recency.
// Callers hold m.mu.
func (m *memoCache) lookupLocked(key string) *cachedRun {
	if m.results == nil {
		return nil
	}
	res, _ := m.results.Get(key)
	return res
}

// store memoizes one completed run's artifacts, returning how many least
// recently used results were evicted beyond the byte budget. A key already
// present only has its recency refreshed: the artifacts are identical by
// determinism, and the first store wins so concurrent readers never
// observe a swap.
func (m *memoCache) store(key string, res *cachedRun) int {
	if m.results == nil || key == "" {
		return 0
	}
	return len(m.results.Add(key, res))
}

// setInflightLocked registers id as the leader run for key. Callers hold
// m.mu.
func (m *memoCache) setInflightLocked(key, id string) {
	if m.inflight != nil {
		m.inflight[key] = id
	}
}

// release retires id as the in-flight leader of key when its run reaches a
// terminal state. The id guard keeps a cache-completed run (which was
// never a leader) from unregistering a new cold leader of the same spec.
func (m *memoCache) release(key, id string) {
	if m.inflight == nil || key == "" {
		return
	}
	m.mu.Lock()
	if m.inflight[key] == id {
		delete(m.inflight, key)
	}
	m.mu.Unlock()
}

// stats reports the store's entry count and accounted bytes, for the
// cache gauges.
func (m *memoCache) stats() (entries int, bytes uint64) {
	if m.results == nil {
		return 0, 0
	}
	return m.results.Len(), m.results.TotalBytes()
}

// artifactBytes approximates one result's host footprint: the output
// bytes plus every snapshot's bytes (obs.Snapshot.Bytes).
func artifactBytes(res *cachedRun) uint64 {
	n := uint64(len(res.output)) + res.metrics.Bytes()
	for k, g := range res.groups {
		n += uint64(len(k)) + g.Bytes()
	}
	return n
}
