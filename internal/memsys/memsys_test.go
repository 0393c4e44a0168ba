package memsys

import (
	"testing"

	"activepages/internal/sim"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.L1I.SizeBytes != 64*1024 || cfg.L1D.SizeBytes != 64*1024 {
		t.Error("L1 sizes do not match Table 1 (64K)")
	}
	if cfg.L2.SizeBytes != 1024*1024 {
		t.Error("L2 size does not match Table 1 (1M)")
	}
	if cfg.L1D.Assoc != 2 || cfg.L2.Assoc != 4 {
		t.Error("associativities do not match Section 7.3 (2-way L1, 4-way L2)")
	}
	if cfg.DRAM.AccessTime != 50*sim.Nanosecond {
		t.Error("miss latency does not match Table 1 (50ns)")
	}
	if cfg.Bus.WordBytes != 4 || cfg.Bus.BeatTime != 10*sim.Nanosecond {
		t.Error("bus does not match Section 3 (32 bits / 10ns)")
	}
}

func TestColdReadThenHit(t *testing.T) {
	h := New(DefaultConfig())
	cold := h.Access(0, 4, Read)
	if cold <= h.cfg.L1HitTime {
		t.Fatalf("cold read too cheap: %v", cold)
	}
	warm := h.Access(0, 4, Read)
	if warm != h.cfg.L1HitTime {
		t.Fatalf("warm read = %v, want L1 hit %v", warm, h.cfg.L1HitTime)
	}
}

func TestColdReadCost(t *testing.T) {
	h := New(DefaultConfig())
	got := h.Access(0, 4, Read)
	// L1 hit time + L2 hit time + DRAM(50ns cold) + bus(32B line = 80ns).
	want := 1*sim.Nanosecond + 8*sim.Nanosecond + 50*sim.Nanosecond + 80*sim.Nanosecond
	if got != want {
		t.Fatalf("cold read = %v, want %v", got, want)
	}
}

func TestFetchUsesICache(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, 4, Fetch)
	if h.L1I.Stats.Misses != 1 || h.L1D.Stats.Misses != 0 {
		t.Fatal("fetch did not go through L1I")
	}
	h.Access(0, 4, Read)
	if h.L1D.Stats.Misses != 1 {
		t.Fatal("read did not go through L1D")
	}
}

func TestUncachedBypasses(t *testing.T) {
	h := New(DefaultConfig())
	d1 := h.Access(4096, 4, UncachedRead)
	if h.L1D.Stats.Accesses() != 0 || h.L2.Stats.Accesses() != 0 {
		t.Fatal("uncached access touched caches")
	}
	if d1 != 50*sim.Nanosecond+10*sim.Nanosecond {
		t.Fatalf("uncached read = %v, want DRAM+1 beat", d1)
	}
	// Second uncached read of the same row pays the row-hit latency.
	d2 := h.Access(4100, 4, UncachedRead)
	if d2 != 20*sim.Nanosecond+10*sim.Nanosecond {
		t.Fatalf("uncached row-hit read = %v", d2)
	}
	if h.UncachedAccesses != 2 {
		t.Fatalf("uncached counter = %d", h.UncachedAccesses)
	}
}

func TestMultiLineAccessChargedPerLine(t *testing.T) {
	h := New(DefaultConfig())
	one := h.Access(0, 4, Read)
	h2 := New(DefaultConfig())
	two := h2.Access(0, 64, Read) // spans two 32-byte lines
	if two <= one {
		t.Fatalf("two-line access (%v) not costlier than one (%v)", two, one)
	}
	if h2.L1D.Stats.Accesses() != 2 {
		t.Fatalf("line accesses = %d", h2.L1D.Stats.Accesses())
	}
}

func TestZeroSizeAccessFree(t *testing.T) {
	h := New(DefaultConfig())
	if h.Access(0, 0, Read) != 0 {
		t.Fatal("zero-size access charged")
	}
}

func TestInvalidateForcesMemoryRead(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, 4, Read)
	warm := h.Access(0, 4, Read)
	dropped := h.Invalidate(0, 32)
	if dropped == 0 {
		t.Fatal("no lines dropped")
	}
	cold := h.Access(0, 4, Read)
	if cold <= warm {
		t.Fatalf("post-invalidate read (%v) should cost more than warm read (%v)", cold, warm)
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	h := New(DefaultConfig())
	// Touch 128 KB: overflows 64 KB L1D but fits in 1 MB L2.
	for a := uint64(0); a < 128*1024; a += 32 {
		h.Access(a, 4, Read)
	}
	l2missesAfterFill := h.L2.Stats.Misses
	// Re-scan: every access misses L1 (capacity) but hits L2.
	for a := uint64(0); a < 128*1024; a += 32 {
		h.Access(a, 4, Read)
	}
	if h.L2.Stats.Misses != l2missesAfterFill {
		t.Fatalf("re-scan caused %d extra L2 misses", h.L2.Stats.Misses-l2missesAfterFill)
	}
}

func TestDirtyL2EvictionPaysBus(t *testing.T) {
	h := New(DefaultConfig())
	// Dirty 2 MB of lines: overflow the 1 MB L2 so dirty lines go to memory.
	for a := uint64(0); a < 2*1024*1024; a += 32 {
		h.Access(a, 4, Write)
	}
	if h.L2.Stats.Writebacks == 0 {
		t.Fatal("no L2 writebacks after overflowing with dirty lines")
	}
}

func TestWriteAllocates(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, 4, Write)
	warm := h.Access(0, 4, Read)
	if warm != h.cfg.L1HitTime {
		t.Fatalf("read after write missed: %v", warm)
	}
}

func BenchmarkHierarchySequential(b *testing.B) {
	h := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i)*4, 4, Read)
	}
}

func BenchmarkHierarchyHit(b *testing.B) {
	h := New(DefaultConfig())
	h.Access(0, 4, Read)
	for i := 0; i < b.N; i++ {
		h.Access(0, 4, Read)
	}
}

func TestFigure8ZeroLatencyConfig(t *testing.T) {
	// Figure 8's leftmost point: 0 ns miss latency must be constructible
	// and an access then costs only hit time plus bus transfer.
	cfg := DefaultConfig()
	cfg.DRAM.AccessTime = 0
	cfg.DRAM.RowHitTime = 0
	h := New(cfg)
	got := h.Access(0, 4, Read)
	want := cfg.L1HitTime + cfg.L2HitTime + 80*sim.Nanosecond // line fill over the bus
	if got != want {
		t.Fatalf("zero-latency cold read = %v, want %v", got, want)
	}
}

func TestUncachedWriteCost(t *testing.T) {
	h := New(DefaultConfig())
	d := h.Access(0, 4, UncachedWrite)
	// DRAM access + one bus beat.
	if d != 50*sim.Nanosecond+10*sim.Nanosecond {
		t.Fatalf("uncached write = %v", d)
	}
}

func TestInvalidateZeroRange(t *testing.T) {
	h := New(DefaultConfig())
	h.Access(0, 4, Read)
	if h.Invalidate(0, 0) != 0 {
		t.Fatal("zero-length invalidate dropped lines")
	}
	if h.Access(0, 4, Read) != h.L1HitTime() {
		t.Fatal("line disappeared")
	}
}
