package mem

import "maps"

// Checkpoint is a copy-on-write snapshot of the store's contents: it holds
// the store's frame index, and the frames themselves stay shared with the
// store (and with every store later restored from the checkpoint) until
// one of them writes. The write barrier (wframe) guarantees a shared frame
// is never written in place, so the checkpoint is immune to later writes
// on either side and may be restored concurrently from several goroutines.
// The frame cache and move buffer are pure lookup/scratch structures with
// no observable state and are not captured.
type Checkpoint struct {
	frames  map[uint64]frame
	touched uint64
}

// Bytes reports the checkpoint's host-memory footprint, for cache
// accounting. It counts every frame the checkpoint references, shared or
// not, so it is an upper bound on the memory the checkpoint alone pins.
func (c Checkpoint) Bytes() uint64 { return uint64(len(c.frames)) * frameBytes }

// Checkpoint captures the store contents. It copies only the frame index;
// moving the store to a fresh generation turns every current frame into a
// shared one that the store's next write to it copies first.
func (s *Store) Checkpoint() Checkpoint {
	s.gen = generations.Add(1)
	return Checkpoint{frames: maps.Clone(s.frames), touched: s.touched}
}

// Restore overwrites the store's contents with a checkpoint, adopting its
// frames copy-on-write so the checkpoint stays reusable. The store keeps
// its generation: a checkpoint holds only frames tagged with generations
// that Checkpoint has retired, and a retired generation is never any
// store's current one, so every adopted frame is already shared. The frame
// cache is cleared: its entries alias the store's previous frames.
func (s *Store) Restore(c Checkpoint) {
	s.frames = maps.Clone(c.frames)
	s.touched = c.touched
	s.fcache = [frameCacheSlots]frameCacheEntry{}
}
