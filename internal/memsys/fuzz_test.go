package memsys

import (
	"bytes"
	"encoding/binary"
	"testing"

	"activepages/internal/sim"
)

// fuzzAccBytes is the encoded size of one StreamAcc in the fuzz input:
// offset int32, size uint8, count uint8, kind uint8, per-entry stride int32.
const fuzzAccBytes = 11

// encodeAccs packs stream entries into the fuzz input format; decodeAccs
// reads them back, bounding every field so one execution stays cheap.
func encodeAccs(accs ...StreamAcc) []byte {
	var b []byte
	for _, a := range accs {
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(a.Off)))
		b = append(b, byte(a.Size-1), byte(a.Count-1), byte(a.Kind-Read))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(a.Stride)))
	}
	return b
}

func decodeAccs(b []byte) []StreamAcc {
	var accs []StreamAcc
	for len(b) >= fuzzAccBytes && len(accs) < 4 {
		a := StreamAcc{
			Off:    int64(int32(binary.LittleEndian.Uint32(b))),
			Size:   1 + uint64(b[4])%64,
			Count:  1 + uint64(b[5])%8,
			Kind:   Read,
			Stride: int64(int32(binary.LittleEndian.Uint32(b[7:]))),
		}
		if b[6]%2 == 1 {
			a.Kind = Write
		}
		accs = append(accs, a)
		b = b[fuzzAccBytes:]
	}
	return accs
}

// replayTrace issues the fuzz trace's scalar accesses around base: each
// 4-byte record is a signed 64-byte-granular offset, a size, and a kind.
func replayTrace(h *Hierarchy, base uint64, trace []byte) []sim.Duration {
	kinds := [...]AccessKind{Read, Write, Fetch, UncachedRead, UncachedWrite}
	var lat []sim.Duration
	for ; len(trace) >= 4 && len(lat) < 256; trace = trace[4:] {
		off := int64(int16(binary.LittleEndian.Uint16(trace))) * 64
		size := 1 + uint64(trace[2])%64
		lat = append(lat, h.AccessRange(base+uint64(off), size, kinds[trace[3]%5]))
	}
	return lat
}

// FuzzStreamMatchesReference runs StreamRun — line-run batching and
// folding — on one hierarchy and the scalar loop StreamRun's contract
// names on a Reference twin, after the same warm-up trace. The latency,
// statistics and histogram snapshots must match, and replaying the trace
// afterwards must cost the same on both, which exposes any cache line,
// LRU stamp or open row the fast paths failed to reconstruct.
func FuzzStreamMatchesReference(f *testing.F) {
	// The median filter's row: three stencil reads a row pitch apart and a
	// far write, stride 2 (line-run batcher).
	f.Add([]byte{0, 0, 4, 0, 64, 0, 4, 1}, uint64(1<<22), int64(2), uint16(2047),
		encodeAccs(
			StreamAcc{Off: -4096 + 2, Size: 2, Count: 1, Kind: Read},
			StreamAcc{Off: 2, Size: 2, Count: 1, Kind: Read},
			StreamAcc{Off: 4096 + 2, Size: 2, Count: 1, Kind: Read},
			StreamAcc{Off: 1 << 21, Size: 2, Count: 1, Kind: Write},
		))
	// The LCS row: a byte-stride operand (per-entry stride) against
	// halfword table reads and writes.
	f.Add([]byte{16, 0, 2, 1}, uint64(1<<23), int64(2), uint16(3000),
		encodeAccs(
			StreamAcc{Off: -40000, Size: 1, Count: 1, Kind: Read, Stride: 1},
			StreamAcc{Off: -6000, Size: 2, Count: 1, Kind: Read},
			StreamAcc{Size: 2, Count: 1, Kind: Write},
		))
	// The database scan: one 4-byte field per 128-byte record.
	f.Add([]byte{}, uint64(1<<24), int64(128), uint16(6000),
		encodeAccs(StreamAcc{Size: 4, Count: 1, Kind: Read}))
	// Set-span strides that fold, ascending and descending, with a batched
	// slice entry and pre-opened rows ahead of the stream.
	f.Add([]byte{0, 32, 4, 0, 0, 64, 4, 0}, uint64(1<<24), int64(32768), uint16(400),
		encodeAccs(
			StreamAcc{Size: 4, Count: 8, Kind: Read},
			StreamAcc{Off: 64, Size: 8, Count: 1, Kind: Write},
		))
	f.Add([]byte{1, 2, 3, 4}, uint64(1<<26), int64(-8192), uint16(2048),
		encodeAccs(StreamAcc{Size: 8, Count: 1, Kind: Write}))
	f.Fuzz(func(t *testing.T, trace []byte, base uint64, stride int64, n uint16, spec []byte) {
		accs := decodeAccs(spec)
		if len(accs) == 0 {
			return
		}
		stride %= 1 << 24
		for i := range accs {
			accs[i].Stride %= 1 << 24
		}
		fast, ref := New(DefaultConfig()), New(DefaultConfig())
		ref.Reference = true
		replayTrace(fast, base, trace)
		replayTrace(ref, base, trace)

		iters := uint64(n) % 6000
		got := fast.StreamRun(base, stride, iters, accs)
		var want sim.Duration
		for i := uint64(0); i < iters; i++ {
			for k := range accs {
				a := &accs[k]
				addr := base + uint64(a.stride(stride))*i + uint64(a.Off)
				if a.Count > 1 {
					want += ref.AccessElems(addr, a.Size, a.Count, a.Kind)
				} else {
					want += ref.AccessRange(addr, a.Size, a.Kind)
				}
			}
		}
		if got != want {
			t.Fatalf("StreamRun(%#x, %d, %d, %+v) = %v, want %v", base, stride, iters, accs, got, want)
		}
		statesEqual(t, 0, fast, ref)
		if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
			t.Fatal("snapshots diverge after stream")
		}
		gotLat, wantLat := replayTrace(fast, base, trace), replayTrace(ref, base, trace)
		for i := range gotLat {
			if gotLat[i] != wantLat[i] {
				t.Fatalf("post-stream access %d: %v, want %v", i, gotLat[i], wantLat[i])
			}
		}
		statesEqual(t, 1, fast, ref)
	})
}
