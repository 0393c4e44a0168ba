// Package obs is the simulator's unified observability layer: a registry
// of named counters, timers, gauges, and histograms that every component
// of a machine — caches, bus, DRAM, memory hierarchy, processor,
// Active-Page system — registers into when the machine is wired up, plus
// a ring-buffered simulated-time trace sink (Tracer).
//
// The registry is pull-based: components register closures over the
// counters they already maintain, so registration costs a few appends at
// construction time and the simulation hot path pays nothing. A nil
// *Registry is the no-op default — every method is nil-safe — so code that
// does not care about metrics never constructs one. The same contract
// holds for *Tracer and *Histogram: nil receivers ignore every emission.
//
// A Snapshot is a point-in-time reading of a registry: a flat map from
// metric name to integral value. Snapshots from independent runs merge
// into sweep-level documents, which is what makes one machine-readable
// metrics file per sweep possible even when the sweep ran across a worker
// pool.
//
// # Merge rules
//
// Merge semantics are encoded in the metric name, so merging needs no
// side table and stays associative and commutative:
//
//   - Counters (raw counts) and timers (accumulated simulated durations,
//     registered under name+"_ns") merge by summation. Summing timers is
//     correct because they are per-run accumulations of simulated time,
//     not wall-clock readings.
//   - Gauges (point-in-time level readings, registered under name+"_max")
//     merge by maximum. Wall-style quantities — a machine's elapsed time,
//     a high-water mark — must be gauges: summing them across a sweep's
//     workers would double-count.
//   - Histogram buckets (registered under name+".h.bNN" with ".h.count"
//     and ".h.sum_ns") are counts and merge by summation, which merges
//     the histograms exactly.
//
// Values absent from a snapshot are treated as zero under both rules, so
// gauges are assumed non-negative.
package obs

import (
	"encoding/json"
	"sort"
	"strings"

	"activepages/internal/sim"
)

// metric is one registered reading.
type metric struct {
	name string
	read func() int64
}

// histFolder is the histogram side of a registration: both the single-run
// Histogram and the concurrency-safe LiveHistogram fold their buckets into
// a snapshot under the same ".h.*" keys.
type histFolder interface {
	fold(s Snapshot, name string)
}

// histEntry is one registered histogram.
type histEntry struct {
	name string
	h    histFolder
}

// Registry collects metric registrations for one machine instance.
// The zero value is ready to use; a nil *Registry is a valid no-op.
type Registry struct {
	metrics []metric
	hists   []histEntry
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Counter registers a monotonically increasing count under name. A nil
// registry ignores the registration.
func (r *Registry) Counter(name string, read func() uint64) {
	if r == nil {
		return
	}
	r.metrics = append(r.metrics, metric{name, func() int64 { return int64(read()) }})
}

// Timer registers an accumulated simulated duration. It is recorded in the
// snapshot in nanoseconds under name + "_ns". A nil registry ignores the
// registration.
func (r *Registry) Timer(name string, read func() sim.Duration) {
	if r == nil {
		return
	}
	r.metrics = append(r.metrics, metric{name + "_ns",
		func() int64 { return int64(read() / sim.Nanosecond) }})
}

// Gauge registers a point-in-time level reading — a wall-style quantity
// like elapsed simulated time or a high-water mark. It is recorded in the
// snapshot under name + "_max", which selects max-merge semantics (see the
// package comment); gauges are assumed non-negative. A nil registry
// ignores the registration.
func (r *Registry) Gauge(name string, read func() int64) {
	if r == nil {
		return
	}
	key := name + GaugeSuffix
	r.metrics = append(r.metrics, metric{key, read})
}

// Histogram registers a latency histogram. Its buckets fold into the
// snapshot under name + ".h.*" keys (see the package comment); merging
// snapshots merges the histograms exactly. A nil registry — or a nil
// histogram — ignores the registration.
func (r *Registry) Histogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.hists = append(r.hists, histEntry{name, h})
}

// LiveHistogram registers a concurrency-safe histogram. It folds into the
// snapshot exactly like Histogram; unlike Histogram it may keep receiving
// observations while the registry is snapshotted. A nil registry — or a
// nil histogram — ignores the registration.
func (r *Registry) LiveHistogram(name string, h *LiveHistogram) {
	if r == nil || h == nil {
		return
	}
	r.hists = append(r.hists, histEntry{name, h})
}

// Len reports how many metrics are registered. A nil registry has none.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics) + len(r.hists)
}

// Snapshot reads every registered metric. Sum-merged metrics registered
// under the same name are summed; gauges registered under the same name
// take the maximum. A nil registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := make(Snapshot, len(r.metrics))
	for _, m := range r.metrics {
		if v := m.read(); strings.HasSuffix(m.name, GaugeSuffix) {
			s[m.name] = max(s[m.name], v)
		} else {
			s[m.name] += v
		}
	}
	for _, e := range r.hists {
		e.h.fold(s, e.name)
	}
	return s
}

// GaugeSuffix marks a metric name as a gauge: keys ending in it merge by
// maximum instead of summation.
const GaugeSuffix = "_max"

// DiagPrefix marks a metric name segment as diagnostic: instrumentation of
// the simulator itself (stream-fold engagement, trace-ring drops) rather
// than of the simulated machine. Diagnostic metrics merge by the normal
// rules and appear in -json snapshots and /metrics, but they are excluded
// from the fast-vs-reference equivalence guarantees — a run that takes a
// fast path *should* count differently from one that does not, while every
// non-diagnostic observable stays byte-identical.
const DiagPrefix = "diag."

// IsDiag reports whether a metric name lives in the diagnostic namespace:
// its name (or any dot-separated prefix-qualified form of it) starts with
// DiagPrefix.
func IsDiag(name string) bool {
	return strings.HasPrefix(name, DiagPrefix) || strings.Contains(name, "."+DiagPrefix)
}

// WithoutDiag returns a copy of s with every diagnostic metric removed —
// the set of observables the equivalence tests compare.
func (s Snapshot) WithoutDiag() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		if !IsDiag(k) {
			out[k] = v
		}
	}
	return out
}

// Snapshot is a point-in-time reading: metric name to value (counts, or
// nanoseconds for timers, or bucket counts for histograms).
type Snapshot map[string]int64

// Merge folds every value of o into s and returns s: "_max" (gauge) keys
// merge by maximum, everything else by summation (the package comment's
// merge rules). Both rules are associative and commutative, so merging
// run snapshots in any grouping or order gives the same sweep totals.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	for k, v := range o {
		if strings.HasSuffix(k, GaugeSuffix) {
			s[k] = max(s[k], v)
		} else {
			s[k] += v
		}
	}
	return s
}

// WithPrefix returns a copy of s with every name prefixed (e.g.
// "conv." / "rad." to keep a machine pair's metrics apart).
func (s Snapshot) WithPrefix(prefix string) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[prefix+k] = v
	}
	return out
}

// Bytes approximates the snapshot's host footprint: every name's bytes
// plus an 8-byte value. Map overhead is not modeled; caches that budget
// by it bound payload, not allocator truth.
func (s Snapshot) Bytes() uint64 {
	n := uint64(0)
	for k := range s {
		n += uint64(len(k)) + 8
	}
	return n
}

// Names returns the metric names in sorted order.
func (s Snapshot) Names() []string {
	names := make([]string, 0, len(s))
	for k := range s {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// JSON renders the snapshot as an indented JSON object with
// deterministically ordered (sorted) keys.
func (s Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
