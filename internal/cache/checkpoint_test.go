package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// TestCheckpointIsolation shows that a checkpoint's shared line array
// survives every mutating entry point on either side of the share: the
// source cache after capture, and a branch cache restored from it. Each
// mutation must change the mutated cache (so the case is not vacuous) and
// leave the checkpoint — and a fresh restore of it — exactly as captured.
func TestCheckpointIsolation(t *testing.T) {
	all := []uint64{^uint64(0)} // every set of a small cache touched
	mutations := map[string]func(c *Cache){
		"Access":          func(c *Cache) { c.Access(3*fastCfg().SizeBytes, true) },
		"InvalidateRange": func(c *Cache) { c.InvalidateRange(0, fastCfg().SizeBytes) },
		"ApplyFoldShift":  func(c *Cache) { c.ApplyFoldShift(all, 1, 1, 2) },
		"RepeatHit":       func(c *Cache) { c.RepeatHit(0, 3, true) },
		"StreamRepeat": func(c *Cache) {
			c.StreamRepeat([]uint64{0}, []uint64{2}, []bool{true}, 2)
		},
	}
	for name, mutate := range mutations {
		for _, side := range []string{"source", "branch"} {
			src := New(fastCfg())
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				src.Access(uint64(rng.Intn(256))*32, rng.Intn(3) == 0)
			}
			src.Access(0, false) // resident, for RepeatHit and StreamRepeat
			var want FoldSnapshot
			src.SnapshotInto(&want)
			ck := src.Checkpoint()

			target := src
			if side == "branch" {
				target = New(fastCfg())
				target.Restore(ck)
			}
			mutate(target)
			var after FoldSnapshot
			target.SnapshotInto(&after)
			if slices.Equal(after.lines, want.lines) {
				t.Fatalf("%s on %s: mutation left the lines unchanged", name, side)
			}
			if !slices.Equal(ck.lines, want.lines) || ck.clock != want.clock || ck.stats != want.stats {
				t.Fatalf("%s on %s: checkpoint changed", name, side)
			}
			fresh := New(fastCfg())
			fresh.Restore(ck)
			var got FoldSnapshot
			fresh.SnapshotInto(&got)
			if !slices.Equal(got.lines, want.lines) || got.clock != want.clock || got.Stats() != want.Stats() {
				t.Fatalf("%s on %s: restore after mutation differs from capture", name, side)
			}
		}
	}
}

// TestCheckpointOfUnwrittenCache pins lazy allocation: a cache that was
// never written checkpoints and restores without an array, still accounts
// its full size, and allocates a zeroed array on its first access.
func TestCheckpointOfUnwrittenCache(t *testing.T) {
	ck := New(fastCfg()).Checkpoint()
	if ck.lines != nil {
		t.Fatal("unwritten cache allocated its line array")
	}
	if want := fastCfg().SizeBytes / fastCfg().LineBytes * 32; ck.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", ck.Bytes(), want)
	}
	c := New(fastCfg())
	c.Access(64, true)
	c.Restore(ck)
	if lookup(c, 64) || residentLines(c) != 0 {
		t.Fatal("restoring an unwritten checkpoint kept resident lines")
	}
	if r := c.Access(64, false); r.Hit {
		t.Fatal("first access after restoring an empty cache hit")
	}
}
