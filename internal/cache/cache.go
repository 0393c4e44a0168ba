// Package cache models set-associative write-back caches with LRU
// replacement, matching the hierarchy simulated in the Active Pages paper:
// split 64 KB 2-way L1 instruction and data caches over a unified 1 MB
// 4-way L2.
//
// The model is a timing/occupancy model: it tracks which lines are resident,
// dirty bits, and LRU order, and reports hits and misses. Data contents live
// in the backing store (package mem); the cache never copies bytes.
package cache

import (
	"fmt"
	"math/bits"

	"activepages/internal/obs"
)

// Config describes one cache level.
type Config struct {
	Name      string // for statistics, e.g. "L1D"
	SizeBytes uint64 // total capacity; power of two
	LineBytes uint64 // line size; power of two
	Assoc     int    // ways per set; >= 1
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes == 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache %s: size %d not a power of two", c.Name, c.SizeBytes)
	case c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	case c.Assoc < 1:
		return fmt.Errorf("cache %s: associativity %d < 1", c.Name, c.Assoc)
	case c.SizeBytes < c.LineBytes*uint64(c.Assoc):
		return fmt.Errorf("cache %s: size %d too small for %d ways of %d-byte lines",
			c.Name, c.SizeBytes, c.Assoc, c.LineBytes)
	}
	return nil
}

// Stats accumulates access counts for one cache.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writebacks  uint64 // dirty lines evicted
	Invalidates uint64 // lines dropped by external invalidation
}

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// Observe registers the cache's counters under prefix (e.g. "mem.l1d").
func (c *Cache) Observe(r *obs.Registry, prefix string) {
	r.Counter(prefix+".hits", func() uint64 { return c.Stats.Hits })
	r.Counter(prefix+".misses", func() uint64 { return c.Stats.Misses })
	r.Counter(prefix+".writebacks", func() uint64 { return c.Stats.Writebacks })
	r.Counter(prefix+".invalidates", func() uint64 { return c.Stats.Invalidates })
}

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lru is a per-set sequence number; the smallest is the victim.
	lru uint64
}

// Cache is one level of a write-back, write-allocate cache.
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: set s occupies
	// lines[s*assoc : (s+1)*assoc].
	lines []line
	assoc uint64
	nsets uint64
	// lineShift/setMask/setShift turn locate's divisions into shifts.
	// LineBytes is always a power of two; the set count is in every real
	// configuration too (setsPow2 guards the rare test configs where an
	// odd associativity makes it composite).
	lineShift uint
	setShift  uint
	setMask   uint64
	setsPow2  bool
	clock     uint64 // LRU sequence source
	Stats     Stats
	// OnMiss, when set, is invoked on every miss with the missing address —
	// the tracing hook. It must be nil when tracing is off so the miss path
	// pays only a nil check; the hit paths never consult it.
	OnMiss func(addr uint64)
}

// New builds a cache from cfg. It panics on an invalid configuration;
// configurations come from code, not user input.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / cfg.LineBytes / uint64(cfg.Assoc)
	c := &Cache{cfg: cfg, lines: make([]line, nsets*uint64(cfg.Assoc)), assoc: uint64(cfg.Assoc), nsets: nsets}
	c.lineShift = uint(bits.TrailingZeros64(cfg.LineBytes))
	if nsets&(nsets-1) == 0 {
		c.setsPow2 = true
		c.setShift = uint(bits.TrailingZeros64(nsets))
		c.setMask = nsets - 1
	}
	return c
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() uint64 { return c.cfg.LineBytes }

// ways returns set's ways.
func (c *Cache) ways(set uint64) []line {
	return c.lines[set*c.assoc : (set+1)*c.assoc]
}

func (c *Cache) locate(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineShift
	if c.setsPow2 {
		return lineAddr & c.setMask, lineAddr >> c.setShift
	}
	return lineAddr % c.nsets, lineAddr / c.nsets
}

// Result describes the outcome of a single-line access.
type Result struct {
	Hit bool
	// WritebackAddr is the address of a dirty victim line that must be
	// written back, valid only when Writeback is true.
	Writeback     bool
	WritebackAddr uint64
}

// Access performs a read or write of the line containing addr and returns
// whether it hit, allocating the line on miss (write-allocate) and reporting
// any dirty eviction. Callers that need multi-line accesses should iterate
// line by line (see AccessRange).
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.locate(addr)
	c.clock++
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.clock
			if write {
				ways[i].dirty = true
			}
			c.Stats.Hits++
			return Result{Hit: true}
		}
	}
	c.Stats.Misses++
	if c.OnMiss != nil {
		c.OnMiss(addr)
	}
	// Choose a victim: an invalid way if any, else LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid && ways[victim].dirty {
		res.Writeback = true
		res.WritebackAddr = c.lineAddr(set, ways[victim].tag)
		c.Stats.Writebacks++
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return res
}

// RepeatHit charges n further accesses to the line containing addr, which
// the caller knows is resident — typically because it just accessed it.
// State and statistics end up exactly as n Access calls would leave them:
// the line was already resident, so each call would hit, bump the clock,
// refresh the line's LRU stamp, and accumulate the dirty bit. If the line
// is unexpectedly absent it falls back to n real Access calls.
func (c *Cache) RepeatHit(addr uint64, n uint64, write bool) {
	if n == 0 {
		return
	}
	set, tag := c.locate(addr)
	ways := c.ways(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.clock += n
			ways[i].lru = c.clock
			if write {
				ways[i].dirty = true
			}
			c.Stats.Hits += n
			return
		}
	}
	for ; n > 0; n-- {
		c.Access(addr, write)
	}
}

// StreamRepeat charges k further rounds of hits over resident lines: each
// round performs counts[j] consecutive accesses to the line containing
// addrs[j], in slice order, with writes[j] setting the dirty bit. The
// caller guarantees every line is resident and stays resident — any two
// entries are either the same line or map to different sets — so every
// access is a hit. State ends byte-identical to executing the k·Σcounts
// interleaved Access calls: the clock advances once per access and each
// line's LRU stamp is the clock value of its last hit in the final round.
// Returns the number of hits charged (k·Σcounts), which the caller prices.
func (c *Cache) StreamRepeat(addrs, counts []uint64, writes []bool, k uint64) uint64 {
	var perRound uint64
	for _, n := range counts {
		perRound += n
	}
	if k == 0 || perRound == 0 {
		return 0
	}
	base := c.clock + (k-1)*perRound
	var prefix uint64
	for j, addr := range addrs {
		set, tag := c.locate(addr)
		ways := c.ways(set)
		prefix += counts[j]
		for i := range ways {
			if ways[i].valid && ways[i].tag == tag {
				ways[i].lru = base + prefix
				if writes[j] {
					ways[i].dirty = true
				}
				break
			}
		}
	}
	c.clock += k * perRound
	c.Stats.Hits += k * perRound
	return k * perRound
}

// lineAddr reconstructs the base address of a line from set and tag.
func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return (tag*c.nsets + set) * c.cfg.LineBytes
}

// InvalidateRange drops any lines overlapping [addr, addr+size), discarding
// dirty data (the invalidator — an Active-Page function — is the new owner
// of those bytes). Returns the number of lines dropped.
func (c *Cache) InvalidateRange(addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	var dropped uint64
	first := addr &^ (c.cfg.LineBytes - 1)
	for a := first; a < addr+size; a += c.cfg.LineBytes {
		set, tag := c.locate(a)
		ways := c.ways(set)
		for i := range ways {
			if ways[i].valid && ways[i].tag == tag {
				ways[i] = line{}
				dropped++
				c.Stats.Invalidates++
				break
			}
		}
	}
	return dropped
}
