// Package mem provides the flat backing store and superpage geometry used by
// the RADram simulator.
//
// The store is the single source of truth for the contents of simulated
// physical memory. Both the processor model and Active-Page functions
// manipulate bytes here; timing is accounted separately by the cache, bus,
// DRAM, and logic models. Frames are allocated lazily so large, sparsely
// touched address spaces stay cheap.
package mem

import (
	"encoding/binary"
	"fmt"
)

// DefaultPageBytes is the paper's Active-Page superpage size: 512 Kbytes,
// matching one gigabit-DRAM subarray (Itoh et al., Section 3 of the paper).
const DefaultPageBytes = 512 * 1024

// frameBytes is the allocation granule of the backing store. It is smaller
// than a superpage so that barely-touched superpages do not cost 512 KB of
// host memory. Must stay a power of two: the fast-path accessors mask with
// frameMask instead of dividing.
const frameBytes = 16 * 1024

const frameMask = frameBytes - 1

// frameCacheSlots sizes the direct-mapped frame cache. Must be a power of
// two. A handful of slots is enough to keep workloads that interleave a few
// address regions (source/destination streams) off the map lookup.
const frameCacheSlots = 64

type frameCacheEntry struct {
	frame []byte
	idx   uint64
}

// Store is a sparse, byte-addressable simulated memory.
//
// The zero value is not usable; call NewStore.
type Store struct {
	frames map[uint64][]byte
	// fcache is a direct-mapped cache of resolved frames, indexed by the low
	// bits of the frame number, so runs of accesses over a few frames — the
	// overwhelmingly common case on the simulator's load/store path — skip
	// the map lookup. Frames are never freed, so entries need no
	// invalidation. frame == nil means the slot is empty.
	fcache [frameCacheSlots]frameCacheEntry
	// moveBuf is the reusable bounce buffer for Move.
	moveBuf []byte
	// touched counts frames ever allocated, for footprint reporting.
	touched uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{frames: make(map[uint64][]byte)}
}

// frame returns the frame containing addr, allocating it if needed.
func (s *Store) frame(addr uint64) []byte {
	idx := addr / frameBytes
	e := &s.fcache[idx&(frameCacheSlots-1)]
	if e.frame != nil && e.idx == idx {
		return e.frame
	}
	f := s.frames[idx]
	if f == nil {
		f = make([]byte, frameBytes)
		s.frames[idx] = f
		s.touched++
	}
	e.frame, e.idx = f, idx
	return f
}

// FootprintBytes reports how much simulated memory has ever been touched.
func (s *Store) FootprintBytes() uint64 { return s.touched * frameBytes }

// ByteAt returns the byte at addr.
func (s *Store) ByteAt(addr uint64) byte {
	return s.frame(addr)[addr&frameMask]
}

// SetByte stores b at addr.
func (s *Store) SetByte(addr uint64, b byte) {
	s.frame(addr)[addr&frameMask] = b
}

// Read copies len(p) bytes starting at addr into p.
func (s *Store) Read(addr uint64, p []byte) {
	for len(p) > 0 {
		f := s.frame(addr)
		off := addr & frameMask
		n := copy(p, f[off:])
		p = p[n:]
		addr += uint64(n)
	}
}

// Write copies p into the store starting at addr.
func (s *Store) Write(addr uint64, p []byte) {
	for len(p) > 0 {
		f := s.frame(addr)
		off := addr & frameMask
		n := copy(f[off:], p)
		p = p[n:]
		addr += uint64(n)
	}
}

// Move copies n bytes from src to dst, handling overlap like copy.
func (s *Store) Move(dst, src uint64, n uint64) {
	if n == 0 || dst == src {
		return
	}
	// Copy through a reusable bounce buffer in chunks. For overlapping
	// forward moves (dst > src) copy back-to-front so earlier bytes are not
	// clobbered.
	const chunk = 64 * 1024
	if uint64(len(s.moveBuf)) < min(n, chunk) {
		s.moveBuf = make([]byte, min(n, chunk))
	}
	buf := s.moveBuf
	if dst > src && dst < src+n {
		rem := n
		for rem > 0 {
			c := min(rem, chunk)
			rem -= c
			s.Read(src+rem, buf[:c])
			s.Write(dst+rem, buf[:c])
		}
		return
	}
	for done := uint64(0); done < n; {
		c := min(n-done, chunk)
		s.Read(src+done, buf[:c])
		s.Write(dst+done, buf[:c])
		done += c
	}
}

// Fill sets n bytes starting at addr to b.
func (s *Store) Fill(addr uint64, n uint64, b byte) {
	for n > 0 {
		f := s.frame(addr)
		off := addr & frameMask
		c := min(n, frameBytes-off)
		region := f[off : off+c]
		// Seed one byte, then double the filled prefix with copy; copy is
		// memmove under the hood, so this is O(log c) passes instead of a
		// byte-at-a-time loop.
		region[0] = b
		for filled := uint64(1); filled < c; filled *= 2 {
			copy(region[filled:], region[:filled])
		}
		addr += c
		n -= c
	}
}

// The fixed-width accessors use little-endian byte order, matching the
// simulated ISA. Each decodes directly from the frame slice when the value
// does not straddle a frame boundary — the overwhelmingly common case —
// and falls back to the generic bounce-buffer path when it does.

// ReadU16 loads a 16-bit value from addr.
func (s *Store) ReadU16(addr uint64) uint16 {
	if off := addr & frameMask; off <= frameBytes-2 {
		return binary.LittleEndian.Uint16(s.frame(addr)[off:])
	}
	var b [2]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint16(b[:])
}

// WriteU16 stores a 16-bit value at addr.
func (s *Store) WriteU16(addr uint64, v uint16) {
	if off := addr & frameMask; off <= frameBytes-2 {
		binary.LittleEndian.PutUint16(s.frame(addr)[off:], v)
		return
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	s.Write(addr, b[:])
}

// ReadU32 loads a 32-bit value from addr.
func (s *Store) ReadU32(addr uint64) uint32 {
	if off := addr & frameMask; off <= frameBytes-4 {
		return binary.LittleEndian.Uint32(s.frame(addr)[off:])
	}
	var b [4]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

// WriteU32 stores a 32-bit value at addr.
func (s *Store) WriteU32(addr uint64, v uint32) {
	if off := addr & frameMask; off <= frameBytes-4 {
		binary.LittleEndian.PutUint32(s.frame(addr)[off:], v)
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	s.Write(addr, b[:])
}

// ReadU64 loads a 64-bit value from addr.
func (s *Store) ReadU64(addr uint64) uint64 {
	if off := addr & frameMask; off <= frameBytes-8 {
		return binary.LittleEndian.Uint64(s.frame(addr)[off:])
	}
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 stores a 64-bit value at addr.
func (s *Store) WriteU64(addr uint64, v uint64) {
	if off := addr & frameMask; off <= frameBytes-8 {
		binary.LittleEndian.PutUint64(s.frame(addr)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

// The typed slice accessors move whole arrays of fixed-width values in one
// call, walking each frame once instead of bouncing every element through
// the scalar path.

// ReadU16Slice loads len(dst) consecutive 16-bit values starting at addr.
func (s *Store) ReadU16Slice(addr uint64, dst []uint16) {
	for len(dst) > 0 {
		off := addr & frameMask
		n := (frameBytes - off) / 2
		if n == 0 { // value straddles the frame boundary
			dst[0] = s.ReadU16(addr)
			dst, addr = dst[1:], addr+2
			continue
		}
		n = min(n, uint64(len(dst)))
		f := s.frame(addr)
		for i := uint64(0); i < n; i++ {
			dst[i] = binary.LittleEndian.Uint16(f[off+2*i:])
		}
		dst, addr = dst[n:], addr+2*n
	}
}

// WriteU16Slice stores the values of src consecutively starting at addr.
func (s *Store) WriteU16Slice(addr uint64, src []uint16) {
	for len(src) > 0 {
		off := addr & frameMask
		n := (frameBytes - off) / 2
		if n == 0 {
			s.WriteU16(addr, src[0])
			src, addr = src[1:], addr+2
			continue
		}
		n = min(n, uint64(len(src)))
		f := s.frame(addr)
		for i := uint64(0); i < n; i++ {
			binary.LittleEndian.PutUint16(f[off+2*i:], src[i])
		}
		src, addr = src[n:], addr+2*n
	}
}

// ReadU32Slice loads len(dst) consecutive 32-bit values starting at addr.
func (s *Store) ReadU32Slice(addr uint64, dst []uint32) {
	for len(dst) > 0 {
		off := addr & frameMask
		n := (frameBytes - off) / 4
		if n == 0 {
			dst[0] = s.ReadU32(addr)
			dst, addr = dst[1:], addr+4
			continue
		}
		n = min(n, uint64(len(dst)))
		f := s.frame(addr)
		for i := uint64(0); i < n; i++ {
			dst[i] = binary.LittleEndian.Uint32(f[off+4*i:])
		}
		dst, addr = dst[n:], addr+4*n
	}
}

// WriteU32Slice stores the values of src consecutively starting at addr.
func (s *Store) WriteU32Slice(addr uint64, src []uint32) {
	for len(src) > 0 {
		off := addr & frameMask
		n := (frameBytes - off) / 4
		if n == 0 {
			s.WriteU32(addr, src[0])
			src, addr = src[1:], addr+4
			continue
		}
		n = min(n, uint64(len(src)))
		f := s.frame(addr)
		for i := uint64(0); i < n; i++ {
			binary.LittleEndian.PutUint32(f[off+4*i:], src[i])
		}
		src, addr = src[n:], addr+4*n
	}
}

// ReadU64Slice loads len(dst) consecutive 64-bit values starting at addr.
func (s *Store) ReadU64Slice(addr uint64, dst []uint64) {
	for len(dst) > 0 {
		off := addr & frameMask
		n := (frameBytes - off) / 8
		if n == 0 {
			dst[0] = s.ReadU64(addr)
			dst, addr = dst[1:], addr+8
			continue
		}
		n = min(n, uint64(len(dst)))
		f := s.frame(addr)
		for i := uint64(0); i < n; i++ {
			dst[i] = binary.LittleEndian.Uint64(f[off+8*i:])
		}
		dst, addr = dst[n:], addr+8*n
	}
}

// WriteU64Slice stores the values of src consecutively starting at addr.
func (s *Store) WriteU64Slice(addr uint64, src []uint64) {
	for len(src) > 0 {
		off := addr & frameMask
		n := (frameBytes - off) / 8
		if n == 0 {
			s.WriteU64(addr, src[0])
			src, addr = src[1:], addr+8
			continue
		}
		n = min(n, uint64(len(src)))
		f := s.frame(addr)
		for i := uint64(0); i < n; i++ {
			binary.LittleEndian.PutUint64(f[off+8*i:], src[i])
		}
		src, addr = src[n:], addr+8*n
	}
}

// Geometry describes the superpage layout of an address space.
type Geometry struct {
	// PageBytes is the superpage size; must be a power of two.
	PageBytes uint64
}

// NewGeometry validates the page size and returns a geometry.
func NewGeometry(pageBytes uint64) (Geometry, error) {
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		return Geometry{}, fmt.Errorf("mem: page size %d is not a power of two", pageBytes)
	}
	return Geometry{PageBytes: pageBytes}, nil
}

// PageIndex returns the superpage number containing addr.
func (g Geometry) PageIndex(addr uint64) uint64 { return addr / g.PageBytes }

// PageOffset returns addr's offset within its superpage.
func (g Geometry) PageOffset(addr uint64) uint64 { return addr & (g.PageBytes - 1) }

// Range describes a contiguous span of simulated memory.
type Range struct {
	Addr uint64
	Len  uint64
}

// End returns the first address past the range.
func (r Range) End() uint64 { return r.Addr + r.Len }
