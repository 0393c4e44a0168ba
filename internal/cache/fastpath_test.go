package cache

import (
	"math/rand"
	"testing"
)

// fastCfg is a small cache so random traces exercise evictions.
func fastCfg() Config {
	return Config{Name: "T", SizeBytes: 4 * 1024, LineBytes: 32, Assoc: 2}
}

// drainTrace drives both caches with the same random tail and compares
// every result, proving their internal state (LRU order, dirty bits)
// ended up identical.
func drainTrace(t *testing.T, rng *rand.Rand, fast, ref *Cache) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		addr := uint64(rng.Intn(8192)) * 32
		write := rng.Intn(2) == 0
		got := fast.Access(addr, write)
		want := ref.Access(addr, write)
		if got != want {
			t.Fatalf("drain step %d: addr %#x result %+v, want %+v", i, addr, got, want)
		}
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("stats diverged: %+v vs %+v", fast.Stats, ref.Stats)
	}
}

// TestRepeatHitEquivalence proves RepeatHit(addr, n) matches n scalar
// Access calls on a resident line, including the LRU/dirty state it
// leaves behind.
func TestRepeatHitEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	fast, ref := New(fastCfg()), New(fastCfg())
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(1024)) * 32
		write := rng.Intn(2) == 0
		n := uint64(rng.Intn(7) + 1)
		// Make the line resident on both, then batch the repeats.
		fast.Access(addr, write)
		ref.Access(addr, write)
		fast.RepeatHit(addr, n, write)
		for k := uint64(0); k < n; k++ {
			ref.Access(addr, write)
		}
		if fast.Stats != ref.Stats {
			t.Fatalf("step %d: stats %+v, want %+v", i, fast.Stats, ref.Stats)
		}
	}
	drainTrace(t, rng, fast, ref)
}

// TestRepeatHitAbsentLineFallsBack proves the defensive fallback still
// behaves like n Access calls when the line is not resident.
func TestRepeatHitAbsentLineFallsBack(t *testing.T) {
	fast, ref := New(fastCfg()), New(fastCfg())
	fast.RepeatHit(64, 3, true)
	for k := 0; k < 3; k++ {
		ref.Access(64, true)
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("stats %+v, want %+v", fast.Stats, ref.Stats)
	}
}

// TestAccessZeroAllocs pins the zero-allocation contract of the hot path.
func TestAccessZeroAllocs(t *testing.T) {
	c := New(fastCfg())
	c.Access(0, false)
	if n := testing.AllocsPerRun(100, func() {
		c.Access(0, false)
		c.Access(0, true)
		c.RepeatHit(0, 4, false)
	}); n != 0 {
		t.Fatalf("hot path allocates %v times per op", n)
	}
}
