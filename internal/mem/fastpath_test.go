package mem

import (
	"math/rand"
	"testing"
)

// TestSliceOpsMatchScalar proves each typed slice accessor moves exactly
// the bytes the scalar loop would, including runs that straddle frame
// boundaries.
func TestSliceOpsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Start addresses that place elements on, before, and across the
	// frame boundary, plus odd (unaligned) ones.
	starts := []uint64{0, 3, frameBytes - 9, frameBytes - 8, frameBytes - 7,
		frameBytes - 4, frameBytes - 2, frameBytes - 1, 5 * frameBytes, 123457}
	const n = 300

	for _, start := range starts {
		t.Run("u16", func(t *testing.T) {
			a, b := NewStore(), NewStore()
			src := make([]uint16, n)
			for i := range src {
				src[i] = uint16(rng.Uint32())
			}
			a.WriteU16Slice(start, src)
			for i, v := range src {
				b.WriteU16(start+uint64(i)*2, v)
			}
			got := make([]uint16, n)
			a.ReadU16Slice(start, got)
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("start %#x: slice read [%d] = %#x, want %#x", start, i, got[i], src[i])
				}
				if w := b.ReadU16(start + uint64(i)*2); w != src[i] {
					t.Fatalf("start %#x: scalar mirror [%d] = %#x, want %#x", start, i, w, src[i])
				}
				// Cross-check byte-level agreement of the two stores.
				if x, y := a.ReadU16(start+uint64(i)*2), b.ReadU16(start+uint64(i)*2); x != y {
					t.Fatalf("start %#x: stores diverge at %d: %#x vs %#x", start, i, x, y)
				}
			}
		})
		t.Run("u32", func(t *testing.T) {
			a, b := NewStore(), NewStore()
			src := make([]uint32, n)
			for i := range src {
				src[i] = rng.Uint32()
			}
			a.WriteU32Slice(start, src)
			for i, v := range src {
				b.WriteU32(start+uint64(i)*4, v)
			}
			got := make([]uint32, n)
			a.ReadU32Slice(start, got)
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("start %#x: slice read [%d] = %#x, want %#x", start, i, got[i], src[i])
				}
				if x, y := a.ReadU32(start+uint64(i)*4), b.ReadU32(start+uint64(i)*4); x != y {
					t.Fatalf("start %#x: stores diverge at %d: %#x vs %#x", start, i, x, y)
				}
			}
		})
		t.Run("u64", func(t *testing.T) {
			a, b := NewStore(), NewStore()
			src := make([]uint64, n)
			for i := range src {
				src[i] = rng.Uint64()
			}
			a.WriteU64Slice(start, src)
			for i, v := range src {
				b.WriteU64(start+uint64(i)*8, v)
			}
			got := make([]uint64, n)
			a.ReadU64Slice(start, got)
			for i := range src {
				if got[i] != src[i] {
					t.Fatalf("start %#x: slice read [%d] = %#x, want %#x", start, i, got[i], src[i])
				}
				if x, y := a.ReadU64(start+uint64(i)*8), b.ReadU64(start+uint64(i)*8); x != y {
					t.Fatalf("start %#x: stores diverge at %d: %#x vs %#x", start, i, x, y)
				}
			}
		})
	}
}

// TestStraddlingScalarAccessors pins the bounce-buffer fallback for values
// crossing a frame boundary.
func TestStraddlingScalarAccessors(t *testing.T) {
	s := NewStore()
	addrs := []uint64{frameBytes - 1, frameBytes - 2, frameBytes - 3,
		frameBytes - 5, frameBytes - 7, 3*frameBytes - 1}
	for _, a := range addrs {
		s.WriteU16(a, 0xBEEF)
		if v := s.ReadU16(a); v != 0xBEEF {
			t.Fatalf("u16 at %#x = %#x", a, v)
		}
		s.WriteU32(a, 0xDEADBEEF)
		if v := s.ReadU32(a); v != 0xDEADBEEF {
			t.Fatalf("u32 at %#x = %#x", a, v)
		}
		s.WriteU64(a, 0x0123456789ABCDEF)
		if v := s.ReadU64(a); v != 0x0123456789ABCDEF {
			t.Fatalf("u64 at %#x = %#x", a, v)
		}
	}
}

// TestScalarAccessorsZeroAllocs pins the zero-allocation contract of the
// data path once frames exist.
func TestScalarAccessorsZeroAllocs(t *testing.T) {
	s := NewStore()
	s.WriteU64(0, 1) // allocate the frame
	if n := testing.AllocsPerRun(100, func() {
		s.WriteU32(16, 42)
		_ = s.ReadU32(16)
		_ = s.ReadU16(20)
		_ = s.ReadU64(24)
	}); n != 0 {
		t.Fatalf("scalar accessors allocate %v times per op", n)
	}
}

func BenchmarkStoreReadU32(b *testing.B) {
	s := NewStore()
	s.WriteU32(0, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.ReadU32(uint64(i%1024) * 4)
	}
}

func BenchmarkStoreReadU32SliceVsScalar(b *testing.B) {
	s := NewStore()
	buf := make([]uint32, 4096)
	s.WriteU32Slice(0, buf)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = s.ReadU32(uint64(j) * 4)
			}
		}
	})
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ReadU32Slice(0, buf)
		}
	})
}
