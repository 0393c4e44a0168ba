package obs

import (
	"reflect"
	"testing"

	"activepages/internal/sim"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(sim.Nanosecond)
	if h.Count() != 0 {
		t.Fatal("nil histogram should ignore observations")
	}
	var r *Registry
	r.Histogram("x", NewHistogram()) // and a nil registry ignores registration
}

func TestHistogramFoldAndSummary(t *testing.T) {
	r := New()
	h := NewHistogram()
	r.Histogram("mem.fill", h)

	h.Observe(0)
	h.Observe(sim.Nanosecond) // 1000 ps -> bucket 10
	h.Observe(sim.Nanosecond)
	h.Observe(1000 * sim.Nanosecond) // 1e6 ps -> bucket 20

	s := r.Snapshot()
	if s["mem.fill.h.count"] != 4 {
		t.Errorf("count key = %d, want 4", s["mem.fill.h.count"])
	}
	if s["mem.fill.h.sum_ns"] != 1002 {
		t.Errorf("sum key = %d, want 1002", s["mem.fill.h.sum_ns"])
	}
	if s["mem.fill.h.b00"] != 1 || s["mem.fill.h.b10"] != 2 || s["mem.fill.h.b20"] != 1 {
		t.Errorf("bucket keys wrong: %v", s)
	}

	hists := s.Histograms()
	if len(hists) != 1 {
		t.Fatalf("Histograms() found %d, want 1", len(hists))
	}
	sum := hists[0]
	if sum.Name != "mem.fill" || sum.Count != 4 || sum.SumNS != 1002 {
		t.Errorf("summary identity wrong: %+v", sum)
	}
	// P50 rank 2 lands in bucket 10 (upper bound 1023 ps = 1.023 ns);
	// the max sample sits in bucket 20 (upper bound 1048575 ps).
	if sum.P50 != 1.023 {
		t.Errorf("P50 = %v, want 1.023", sum.P50)
	}
	if sum.Max != 1048.575 {
		t.Errorf("Max = %v, want 1048.575", sum.Max)
	}
	if got := sum.MeanNS(); got != 1002.0/4 {
		t.Errorf("MeanNS = %v, want %v", got, 1002.0/4)
	}
}

func TestHistogramEmptyStaysOutOfSnapshot(t *testing.T) {
	r := New()
	r.Histogram("quiet", NewHistogram())
	if s := r.Snapshot(); len(s) != 0 {
		t.Fatalf("empty histogram leaked keys: %v", s)
	}
	if got := (Snapshot{}).Histograms(); len(got) != 0 {
		t.Fatalf("empty snapshot yielded histograms: %v", got)
	}
}

// TestHistogramMergeExact checks that merging two runs' snapshots yields
// the same summaries as observing every sample into one histogram —
// bucket counts are plain summed counters, so the merge is lossless.
func TestHistogramMergeExact(t *testing.T) {
	samples1 := []sim.Duration{0, 5, sim.Nanosecond, 80 * sim.Nanosecond}
	samples2 := []sim.Duration{3, sim.Nanosecond, 4096 * sim.Nanosecond}

	snapOf := func(groups ...[]sim.Duration) Snapshot {
		r := New()
		h := NewHistogram()
		r.Histogram("lat", h)
		for _, g := range groups {
			for _, d := range g {
				h.Observe(d)
			}
		}
		return r.Snapshot()
	}

	merged := snapOf(samples1)
	merged.Merge(snapOf(samples2))
	whole := snapOf(samples1, samples2)
	if !reflect.DeepEqual(merged.Histograms(), whole.Histograms()) {
		t.Errorf("merged summaries diverge:\n merged %+v\n  whole %+v",
			merged.Histograms(), whole.Histograms())
	}
}
