package cache

// Checkpoint is a copy-on-write snapshot of a cache's replacement state:
// it references the cache's line array instead of copying it. Capturing
// and restoring both leave the cache without ownership of the array, so
// whichever side mutates first copies it (see own) and the checkpoint's
// array is never written again. One checkpoint can seed any number of
// caches, concurrently.
type Checkpoint struct {
	// lines is nil when the cache had never been written.
	lines  []line
	nlines uint64
	clock  uint64
	stats  Stats
}

// Bytes estimates the checkpoint's host-memory footprint, for checkpoint
// cache accounting: 32 bytes per line, counted whether or not the array
// is shared or was ever allocated.
func (c *Checkpoint) Bytes() uint64 { return c.nlines * 32 }

// Checkpoint captures the cache's replacement state, sharing its array.
func (c *Cache) Checkpoint() Checkpoint {
	c.owned = false
	return Checkpoint{lines: c.lines, nlines: c.nsets * c.assoc, clock: c.clock, stats: c.Stats}
}

// Restore overwrites the cache's replacement state with a checkpoint taken
// from a cache of identical geometry (set count and associativity), which
// callers guarantee by building both caches from the same configuration.
// The cache adopts the checkpoint's array and copies it on its next
// mutation.
func (c *Cache) Restore(ck Checkpoint) {
	c.lines = ck.lines
	c.owned = false
	c.clock = ck.clock
	c.Stats = ck.stats
}
