package pager

import (
	"math/rand"
	"testing"
	"testing/quick"

	"activepages/internal/sim"
)

func newPager(frames int) *Pager { return New(DefaultConfig(frames)) }

func TestValidate(t *testing.T) {
	bad := []Config{
		{ResidentPages: 0, PageBytes: 4096, DiskBandwidthBps: 1},
		{ResidentPages: 1, PageBytes: 0, DiskBandwidthBps: 1},
		{ResidentPages: 1, PageBytes: 4096, DiskBandwidthBps: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestHitCostsNothing(t *testing.T) {
	p := newPager(4)
	first := p.Touch(1, false, 0)
	if first == 0 {
		t.Fatal("cold touch should fault")
	}
	if p.Touch(1, false, 0) != 0 {
		t.Fatal("resident touch should be free")
	}
	if p.Stats.Faults != 1 || p.Stats.Accesses != 2 {
		t.Fatalf("stats = %+v", p.Stats)
	}
}

// resident reports whether a page is in memory.
func resident(p *Pager, page uint64) bool {
	_, ok := p.resident[page]
	return ok
}

func TestLRUEviction(t *testing.T) {
	p := newPager(2)
	p.Touch(1, false, 0)
	p.Touch(2, false, 0)
	p.Touch(1, false, 0) // 2 is now LRU
	p.Touch(3, false, 0) // evicts 2
	if !resident(p, 1) || !resident(p, 3) {
		t.Fatal("wrong pages resident")
	}
	if resident(p, 2) {
		t.Fatal("LRU page survived")
	}
	if p.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats.Evictions)
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	f := func(trace []uint16, framesRaw uint8) bool {
		frames := int(framesRaw%8) + 1
		p := newPager(frames)
		for _, pg := range trace {
			p.Touch(uint64(pg%32), pg%2 == 0, 3000)
		}
		return p.lru.Len() <= frames
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestActivePageSwapCostsMore(t *testing.T) {
	conv := newPager(1)
	act := newPager(1)
	convCost := conv.Touch(1, false, 0)
	actCost := act.Touch(1, true, 3500) // a ~3.5 KB bitstream
	if actCost <= convCost {
		t.Fatalf("active swap-in (%v) not costlier than conventional (%v)", actCost, convCost)
	}
	if act.Stats.ReconfigTime == 0 {
		t.Fatal("no reconfiguration time recorded")
	}
	// The paper's window: total within 2-4x of the data move for realistic
	// bitstreams. With positioning-dominated disks the ratio is smaller;
	// check reconfiguration is a visible but not absurd fraction.
	ratio := float64(actCost) / float64(convCost)
	if ratio < 1.001 || ratio > 10 {
		t.Fatalf("swap ratio = %v", ratio)
	}
}

func TestWorkingSetFitsNoSteadyStateFaults(t *testing.T) {
	p := newPager(8)
	trace := make([]uint64, 0, 800)
	for i := 0; i < 100; i++ {
		for pg := uint64(0); pg < 8; pg++ {
			trace = append(trace, pg)
		}
	}
	p.RunTrace(trace, false, 0)
	if p.Stats.Faults != 8 {
		t.Fatalf("faults = %d, want 8 cold faults only", p.Stats.Faults)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Cyclic access to frames+1 pages under LRU faults every time.
	p := newPager(4)
	var trace []uint64
	for i := 0; i < 50; i++ {
		trace = append(trace, uint64(i%5))
	}
	p.RunTrace(trace, false, 0)
	if p.Stats.Faults != 50 {
		t.Fatalf("faults = %d, want 50 (LRU cyclic thrash)", p.Stats.Faults)
	}
}

func TestTransferTimeModel(t *testing.T) {
	p := newPager(4)
	// 512 KB at 10 MB/s = 52.4288 ms + 8 ms positioning.
	want := 8*sim.Millisecond + sim.Duration(512*1024*uint64(sim.Second)/10_000_000)
	if got := p.transferTime(); got != want {
		t.Fatalf("transfer = %v, want %v", got, want)
	}
}

func TestFaultRate(t *testing.T) {
	p := newPager(2)
	p.Touch(1, false, 0)
	p.Touch(1, false, 0)
	if got := p.Stats.FaultRate(); got != 0.5 {
		t.Fatalf("fault rate = %v", got)
	}
	if (Stats{}).FaultRate() != 0 {
		t.Fatal("empty fault rate should be 0")
	}
}

// Property: replaying any trace with a larger resident set never faults
// more (LRU is a stack algorithm — no Belady anomaly).
func TestLRUStackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trace := make([]uint64, 300)
		for i := range trace {
			trace[i] = uint64(rng.Intn(12))
		}
		small := newPager(3)
		big := newPager(6)
		small.RunTrace(trace, false, 0)
		big.RunTrace(trace, false, 0)
		return big.Stats.Faults <= small.Stats.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
