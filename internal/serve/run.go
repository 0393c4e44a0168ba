package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"activepages/internal/lru"
	"activepages/internal/mem"
	"activepages/internal/obs"
	"activepages/internal/run"
)

// State is a run's position in its lifecycle. Runs move strictly forward:
// queued -> running -> done|failed (a queued run can also fail directly,
// when the daemon shuts down before a worker picks it up).
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Request is the body of POST /api/v1/runs: which experiment to run and
// with what knobs. The zero value of every field selects the apbench
// default.
type Request struct {
	// Experiment names what to run: a composite experiment, "all", or a
	// single benchmark name — the same vocabulary as apbench -experiment.
	Experiment string `json:"experiment"`
	// Quick selects the short problem-size axis (apbench -quick).
	Quick bool `json:"quick,omitempty"`
	// PageBytes overrides the superpage size (apbench -pagebytes); 0 keeps
	// the scaled default.
	PageBytes uint64 `json:"page_bytes,omitempty"`
	// Regions prints the region classification after fig3 (apbench -regions).
	Regions bool `json:"regions,omitempty"`
	// L2 makes fig5 sweep the L2 instead of the L1D (apbench -l2).
	L2 bool `json:"l2,omitempty"`
	// Backend selects the Active-Page compute backend (apbench -backend):
	// "radram" (the default when empty), "simdram", or "all".
	Backend string `json:"backend,omitempty"`
}

// Run is one submitted experiment and everything it produced. The struct
// is guarded by its server's registry lock; handlers only ever see copies
// taken under that lock (see view), so a run in flight never races a read.
type Run struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
	State   State   `json:"state"`
	// RequestID is the fleet-wide correlation id of the submission that
	// created this run (the X-AP-Request-Id header), joining this run to
	// the router's and shard's access-log lines for the same interaction.
	RequestID string `json:"request_id,omitempty"`
	// Error holds the failure cause when State is failed.
	Error string `json:"error,omitempty"`
	// Submitted/Started/Finished are wall-clock lifecycle stamps.
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// ElapsedMS is the wall-clock execution time in milliseconds, set when
	// the run finishes.
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Progress is a live snapshot of the run's sweep execution — points
	// done over scheduled, checkpoint outcomes, per-point wall costs —
	// present from the moment a worker picks the run up, including on
	// completed runs (where it is the final tally).
	Progress *run.ProgressSnapshot `json:"progress,omitempty"`
	// EtaMS estimates the remaining wall milliseconds of a running run
	// from the scheduled points and observed per-point cost; 0 when the
	// run is not running or nothing has completed yet.
	EtaMS int64 `json:"eta_ms,omitempty"`
	// Evicted marks a tombstone: the run hit the registry's retention cap
	// and its artifacts (output, metrics, trace) were dropped, leaving the
	// lifecycle record.
	Evicted bool `json:"evicted,omitempty"`
	// Cached marks a run completed from the content-addressed result
	// cache: its artifacts are a previous identical run's, byte for byte,
	// and no simulation executed.
	Cached bool `json:"cached,omitempty"`

	// output is the experiment's rendered tables — exactly what apbench
	// would have printed to stdout. metrics is the run's merged snapshot
	// and groups its per-benchmark snapshots (for the attribution report).
	// All are populated only once the run is done and are immutable
	// afterwards, so handlers may serve them without copying. Eviction
	// nils them under the registry lock; handlers re-check through the
	// lock (lookup copies), never through a stale view.
	output  []byte
	metrics obs.Snapshot
	groups  map[string]obs.Snapshot

	// trace is the run's wall-clock lifecycle trace and structured event
	// log, created at submission (epoch = submission time) and emitted
	// into by the executing worker; it is concurrency-safe, so handlers
	// export it while the run is in flight. progress is the live tracker
	// the worker's runner reports into. jobs is the run's simulation
	// worker-pool width, for the ETA estimate. spec is the run's content
	// address (SpecKey), keying the result cache and singleflight index.
	trace    *obs.WallTracer
	progress *run.Progress
	jobs     int
	spec     string
}

// view returns a shallow copy of the run's JSON-visible fields, safe to
// marshal after the registry lock is released. output and metrics are
// intentionally shared: they are written once, before the run is marked
// done, and never mutated after. The progress snapshot is taken here so
// every view carries a consistent live reading.
func (r *Run) view() Run {
	v := *r
	if r.progress != nil && r.Started != nil {
		snap := r.progress.Snapshot()
		v.Progress = &snap
		if r.State == StateRunning {
			v.EtaMS = snap.ETA(r.jobs).Milliseconds()
		}
	}
	return v
}

// tombstonesPerRetained sizes the tombstone cap as a multiple of the
// artifact cap: a run stays answerable (410 on its artifacts, its
// lifecycle and progress intact) for this many retention windows after its
// artifacts go.
const tombstonesPerRetained = 4

// registry is the server's run table: id allocation, lookup, listing, and
// retention. Completed and failed runs keep their artifacts (output,
// metrics, trace) for the newest retain of them only: finalize evicts the
// oldest terminal runs' artifacts beyond the cap, keeping each evicted
// run's lifecycle record as a tombstone. The newest
// tombstonesPerRetained·retain tombstones are kept; an older one is
// deleted from the table and its id answers 404. Live runs plus both caps
// bound the table.
type registry struct {
	mu   sync.Mutex
	next int
	runs map[string]*Run
	// instance, when set, prefixes every run id ("b0-r000001"), making ids
	// globally unique across a sharded fleet so a router can route a GET
	// by id to the shard that owns it.
	instance string
	// terminal holds the terminal (done/failed), not-yet-evicted runs at
	// cost 1 each. It is never read with Get, so its recency order is
	// completion order and eviction drops the oldest terminal run.
	terminal *lru.Cache[string, *Run]
	// tombstones holds the evicted runs the same way, in eviction order;
	// a tombstone it evicts is deleted from runs.
	tombstones *lru.Cache[string, *Run]
}

func newRegistry(retain int, instance string) *registry {
	one := func(*Run) uint64 { return 1 }
	return &registry{
		runs:       make(map[string]*Run),
		instance:   instance,
		terminal:   lru.New[string](uint64(retain), one),
		tombstones: lru.New[string](tombstonesPerRetained*uint64(retain), one),
	}
}

// add registers a freshly submitted run and assigns its id. The run's
// wall-clock trace, progress tracker, per-run jobs width, and spec key are
// attached here, under the lock, so no published run is ever mutated
// outside it.
func (g *registry) add(req Request, spec, rid string, now time.Time, trace *obs.WallTracer, prog *run.Progress, jobs int) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	id := fmt.Sprintf("r%06d", g.next)
	if g.instance != "" {
		id = g.instance + "-" + id
	}
	r := &Run{
		ID:        id,
		Request:   req,
		State:     StateQueued,
		RequestID: rid,
		Submitted: now,
		trace:     trace,
		progress:  prog,
		jobs:      jobs,
		spec:      spec,
	}
	g.runs[r.ID] = r
	return r
}

// finalize enters a terminal run into retention, turns the oldest
// terminal runs beyond the cap into tombstones, and deletes the oldest
// tombstones beyond theirs. It returns how many runs' artifacts were
// evicted by this call, for the server's counter.
func (g *registry) finalize(id string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return 0
	}
	evicted := g.terminal.Add(id, r)
	for _, r := range evicted {
		r.Evicted = true
		r.output = nil
		r.metrics = nil
		r.groups = nil
		r.trace = nil
		for _, old := range g.tombstones.Add(r.ID, r) {
			delete(g.runs, old.ID)
		}
	}
	return len(evicted)
}

// get returns a consistent copy of one run.
func (g *registry) get(id string) (Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return Run{}, false
	}
	return r.view(), true
}

// list returns consistent copies of every run, sorted by id (submission
// order, since ids are sequential and zero-padded).
func (g *registry) list() []Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Run, 0, len(g.runs))
	for _, r := range g.runs {
		out = append(out, r.view())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// remove deletes a run (used to reclaim the slot of a shed submission).
func (g *registry) remove(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.runs, id)
}

// update applies fn to the run under the registry lock.
func (g *registry) update(id string, fn func(*Run)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.runs[id]; ok {
		fn(r)
	}
}

// counts tallies runs per state for the queue gauges.
func (g *registry) counts() map[State]int {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := make(map[State]int, 4)
	for _, r := range g.runs {
		c[r.State]++
	}
	return c
}

// validate rejects a request the dispatcher would refuse, so a bad
// experiment name fails the POST with 400 instead of occupying a worker.
func (req Request) validate(known func(string) bool) error {
	if req.Experiment == "" {
		return fmt.Errorf("missing experiment name")
	}
	if !known(req.Experiment) {
		return fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	if req.PageBytes != 0 && (req.PageBytes&(req.PageBytes-1)) != 0 {
		return fmt.Errorf("page_bytes must be a power of two, got %d", req.PageBytes)
	}
	// The simulated machine allocates its pages on the host, so an
	// unbounded size would exhaust the daemon's memory, which is fatal
	// rather than a recoverable run error.
	if req.PageBytes > mem.DefaultPageBytes {
		return fmt.Errorf("page_bytes must be at most %d (the paper's page size), got %d", mem.DefaultPageBytes, req.PageBytes)
	}
	switch req.Backend {
	case "", "radram", "simdram", "all":
	default:
		return fmt.Errorf("unknown backend %q (want radram, simdram, or all)", req.Backend)
	}
	return nil
}

// String renders the request compactly for logs.
func (req Request) String() string {
	var b strings.Builder
	b.WriteString(req.Experiment)
	if req.Quick {
		b.WriteString(" quick")
	}
	if req.PageBytes != 0 {
		fmt.Fprintf(&b, " pagebytes=%d", req.PageBytes)
	}
	if req.Backend != "" {
		fmt.Fprintf(&b, " backend=%s", req.Backend)
	}
	return b.String()
}
