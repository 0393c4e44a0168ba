package obs

import (
	"sync"
	"sync/atomic"
	"testing"

	"activepages/internal/sim"
)

// TestLiveHistogramMatchesHistogram checks the lock-striped histogram folds
// into exactly the same snapshot keys as the single-run histogram for the
// same observations.
func TestLiveHistogramMatchesHistogram(t *testing.T) {
	plain, live := NewHistogram(), NewLiveHistogram()
	for i := 0; i < 1000; i++ {
		d := sim.Duration(i*i) * sim.Nanosecond / 3
		plain.Observe(d)
		live.Observe(d)
	}
	a, b := Snapshot{}, Snapshot{}
	plain.fold(a, "lat")
	live.fold(b, "lat")
	if len(a) == 0 {
		t.Fatal("plain histogram folded no keys")
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("key %s: live %d, plain %d", k, b[k], v)
		}
	}
	if len(a) != len(b) {
		t.Errorf("key count: live %d, plain %d", len(b), len(a))
	}
}

// TestLiveHistogramConcurrent hammers one histogram from many goroutines
// while snapshotting it, and checks (a) no observation is lost once the
// writers finish and (b) every mid-flight checkpoint is internally
// consistent: its count equals the sum of its buckets. Run under -race this
// is also the data-race gate for the striping.
func TestLiveHistogramConcurrent(t *testing.T) {
	const writers, perWriter = 8, 5000
	h := NewLiveHistogram()

	var torn atomic.Bool
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := h.Checkpoint()
			var n uint64
			for _, b := range c.buckets {
				n += b
			}
			if n != c.count {
				torn.Store(true)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(sim.Duration(w*i) * sim.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()

	if torn.Load() {
		t.Fatal("checkpoint observed bucket sum != count")
	}
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("lost observations: count %d, want %d", got, writers*perWriter)
	}
}

// TestLiveCounterGauge covers the scalar live types and their registry
// registration.
func TestLiveCounterGauge(t *testing.T) {
	var c LiveCounter
	var g LiveGauge
	r := New()
	r.Counter("serve.hits", c.Load)
	r.Gauge("serve.depth", g.Load)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				r.Snapshot() // concurrent scrape must be race-free
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s["serve.hits"] != 4000 {
		t.Errorf("counter = %d, want 4000", s["serve.hits"])
	}
	if s["serve.depth_max"] != 0 {
		t.Errorf("gauge = %d, want 0", s["serve.depth_max"])
	}
	c.Add(5)
	g.Add(-3)
	if c.Load() != 4005 || g.Load() != -3 {
		t.Errorf("Load: counter %d gauge %d", c.Load(), g.Load())
	}
}

// TestNilLiveHistogram checks the nil contract matches Histogram's.
func TestNilLiveHistogram(t *testing.T) {
	var h *LiveHistogram
	h.Observe(5)
	if h.Count() != 0 {
		t.Error("nil histogram counted an observation")
	}
	s := Snapshot{}
	h.fold(s, "x")
	if len(s) != 0 {
		t.Error("nil histogram folded keys")
	}
	r := New()
	r.LiveHistogram("x", nil)
	if r.Len() != 0 {
		t.Error("nil live histogram registration should be ignored")
	}
}
