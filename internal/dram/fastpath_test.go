package dram

import (
	"math/rand"
	"testing"
)

// refOpenRow is the open-row model written straight from the definition,
// with divisions instead of shifts; the device must stay indistinguishable
// from it.
type refOpenRow struct {
	cfg  Config
	open map[uint64]int64
	s    Stats
}

func newRefOpenRow(cfg Config) *refOpenRow {
	return &refOpenRow{cfg: cfg, open: make(map[uint64]int64)}
}

func (r *refOpenRow) access(addr uint64) (hit bool) {
	r.s.Accesses++
	sub := addr / r.cfg.SubarrayBytes
	row := int64(addr % r.cfg.SubarrayBytes / r.cfg.RowBytes)
	if open, ok := r.open[sub]; ok && open == row {
		r.s.RowHits++
		return true
	}
	r.open[sub] = row
	r.s.RowMisses++
	return false
}

func (r *refOpenRow) closeAll() { clear(r.open) }

// TestOpenRowMatchesReference drives the device and the reference model
// with one random trace over many subarrays and rows, interleaving
// closing every open row.
func TestOpenRowMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	ref := newRefOpenRow(cfg)
	rng := rand.New(rand.NewSource(17))

	for i := 0; i < 30000; i++ {
		base := uint64(rng.Intn(1<<20)) * cfg.SubarrayBytes
		if rng.Intn(2) == 0 {
			base = uint64(rng.Intn(4)) * cfg.SubarrayBytes
		}
		addr := base + uint64(rng.Intn(64))*cfg.RowBytes + uint64(rng.Intn(int(cfg.RowBytes)))
		gotT := d.AccessTime(addr)
		wantHit := ref.access(addr)
		wantT := cfg.AccessTime
		if wantHit {
			wantT = cfg.RowHitTime
		}
		if gotT != wantT {
			t.Fatalf("step %d addr %#x: time %v, want %v (hit=%v)", i, addr, gotT, wantT, wantHit)
		}
		if d.Stats != ref.s {
			t.Fatalf("step %d: stats %+v, want %+v", i, d.Stats, ref.s)
		}
		if rng.Intn(2048) == 0 {
			clear(d.openRow)
			ref.closeAll()
		}
	}
}

// TestAccessTimeZeroAllocs pins the zero-allocation contract once the
// open-row table holds the working set.
func TestAccessTimeZeroAllocs(t *testing.T) {
	d := New(DefaultConfig())
	d.AccessTime(0)
	d.AccessTime(3 * d.cfg.SubarrayBytes)
	if n := testing.AllocsPerRun(100, func() {
		d.AccessTime(0)
		d.AccessTime(2 * d.cfg.SubarrayBytes)
	}); n != 0 {
		t.Fatalf("AccessTime allocates %v times per op", n)
	}
}

func BenchmarkAccessTimeRowHit(b *testing.B) {
	d := New(DefaultConfig())
	d.AccessTime(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.AccessTime(64)
	}
}
