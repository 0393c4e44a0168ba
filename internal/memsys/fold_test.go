package memsys

import (
	"bytes"
	"math/rand"
	"testing"

	"activepages/internal/obs"
	"activepages/internal/sim"
)

// snapshotJSON captures every observable the hierarchy registers — counters,
// timers, and full histogram contents — as deterministic JSON, so two
// hierarchies can be compared snapshot-exact, not just measurement-exact.
// Diagnostic ("diag.") counters are stripped: they record which pipeline
// ran, so a folding and a reference hierarchy legitimately differ there.
func snapshotJSON(t *testing.T, h *Hierarchy) []byte {
	t.Helper()
	r := obs.New()
	h.Observe(r, "mem")
	j, err := r.Snapshot().WithoutDiag().JSON()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return j
}

// strideStream runs n elemBytes-wide accesses of one kind at base,
// base+stride, base+2·stride, … as a single-entry StreamRun.
func strideStream(h *Hierarchy, base, elemBytes uint64, stride int64, n uint64, kind AccessKind) sim.Duration {
	accs := [1]StreamAcc{{Size: elemBytes, Count: 1, Kind: kind}}
	return h.StreamRun(base, stride, n, accs[:])
}

// foldStrides mixes strides whose fold period is short (large power-of-two
// factors, including cache-thrashing set strides and page-crossing DRAM
// strides) with strides that stay scalar (small or odd), plus negatives.
var foldStrides = []int64{
	2, 4, 8, 24, 100, 128, 1024, 2048, 4096, 8192,
	32768, 65536, 524288, // L1-set span, thrashing; subarray span
	-8, -1024, -4096, -32768,
	3, 7, 513, // odd and misaligned: enormous periods, scalar fallback
}

// TestStrideStreamMatchesReference drives twin hierarchies — one folding,
// one in Reference mode stepped scalar access by scalar access — through
// random stride streams interleaved with random scalar traffic, and
// requires identical latency totals, statistics, and histogram snapshots
// after every stream. The interleaved traffic means any hidden state the
// fold failed to reconstruct (cache lines, LRU, DRAM open rows) surfaces as
// a later timing difference.
func TestStrideStreamMatchesReference(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	rng := rand.New(rand.NewSource(11))
	widths := []uint64{1, 2, 4, 8, 32, 1024}
	for round := 0; round < 120; round++ {
		base := uint64(rng.Intn(1 << 24))
		if rng.Intn(2) == 0 {
			// Land near a scaled-page boundary so streams cross it.
			base = uint64(rng.Intn(8))<<16 - uint64(rng.Intn(256))
		}
		stride := foldStrides[rng.Intn(len(foldStrides))]
		w := widths[rng.Intn(len(widths))]
		kind := Read
		if rng.Intn(3) == 0 {
			kind = Write
		}
		n := uint64(rng.Intn(12000) + 1)
		got := strideStream(fast, base, w, stride, n, kind)
		var want sim.Duration
		for i := uint64(0); i < n; i++ {
			want += ref.AccessRange(base+uint64(stride)*i, w, kind)
		}
		if got != want {
			t.Fatalf("round %d: strideStream(%#x,%d,%d,%d) = %v, want %v",
				round, base, w, stride, n, got, want)
		}
		statesEqual(t, round, fast, ref)
		if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
			t.Fatalf("round %d: snapshots diverge after stream", round)
		}
		// Random scalar traffic between streams: exposes any misfolded
		// residual state.
		for i := 0; i < 32; i++ {
			addr := uint64(rng.Intn(1 << 22))
			size := uint64(rng.Intn(64) + 1)
			k := randKind(rng)
			if g, wnt := fast.AccessRange(addr, size, k), ref.AccessRange(addr, size, k); g != wnt {
				t.Fatalf("round %d: post-stream access %d diverges: %v != %v", round, i, g, wnt)
			}
		}
		statesEqual(t, round, fast, ref)
	}
	if fast.Folds.Folded == 0 {
		t.Fatalf("no stream ever folded: %+v", fast.Folds)
	}
	if fast.Folds.FoldedIters == 0 || fast.Folds.ScalarIters == 0 {
		t.Fatalf("expected both folded and scalar iterations: %+v", fast.Folds)
	}
}

// TestStreamRunMultiAccessMatchesReference exercises the multi-access
// patterns the applications issue (read/write pairs at constant offsets,
// batched slice entries) against the scalar reference.
func TestStreamRunMultiAccessMatchesReference(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 60; round++ {
		base := uint64(rng.Intn(1 << 22))
		stride := foldStrides[rng.Intn(len(foldStrides))]
		nacc := rng.Intn(3) + 1
		accs := make([]StreamAcc, nacc)
		for i := range accs {
			accs[i] = StreamAcc{
				Off:   int64(rng.Intn(1 << 16)),
				Size:  []uint64{2, 4, 8, 1024}[rng.Intn(4)],
				Count: 1,
				Kind:  Read,
			}
			if rng.Intn(2) == 0 {
				accs[i].Kind = Write
			}
			if rng.Intn(3) == 0 {
				accs[i].Count = uint64(rng.Intn(256) + 2)
				accs[i].Size = 4
			}
		}
		n := uint64(rng.Intn(6000) + 1)
		got := fast.StreamRun(base, stride, n, accs)
		var want sim.Duration
		for i := uint64(0); i < n; i++ {
			a0 := base + uint64(stride)*i
			for k := range accs {
				a := &accs[k]
				if a.Count > 1 {
					want += ref.AccessElems(a0+uint64(a.Off), a.Size, a.Count, a.Kind)
				} else {
					want += ref.AccessRange(a0+uint64(a.Off), a.Size, a.Kind)
				}
			}
		}
		if got != want {
			t.Fatalf("round %d: StreamRun(%#x,%d,%d,%d accs) = %v, want %v",
				round, base, stride, n, nacc, got, want)
		}
		statesEqual(t, round, fast, ref)
		if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
			t.Fatalf("round %d: snapshots diverge after stream", round)
		}
	}
}

// TestStreamFoldZeroAllocs pins the zero-allocation contract of the folded
// path: after the scratch state exists, folding a long stream must not
// allocate.
func TestStreamFoldZeroAllocs(t *testing.T) {
	h := New(DefaultConfig())
	run := func() {
		strideStream(h, 0, 4, 4096, 4096, Read)
		strideStream(h, 1<<26, 8, -8192, 2048, Write)
	}
	run() // grow the scratch buffers once
	if h.Folds.Folded == 0 {
		t.Fatalf("warmup stream did not fold: %+v", h.Folds)
	}
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("folded stream path allocates %v times per run", n)
	}
}

// TestStreamWrapRunsScalar pins the address-wrap disqualifier: cache tags
// are address quotients, so the true tag trajectory is discontinuous where a
// stream crosses the 2^64 boundary and a uniform-shift fold would
// reconstruct wrong tags. Such streams must run scalar and still match the
// reference exactly.
func TestStreamWrapRunsScalar(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	cases := []struct {
		base   uint64
		w      uint64
		stride int64
		n      uint64
		kind   AccessKind
	}{
		{0xae9615, 1024, -32768, 6587, Write},     // descends through zero
		{^uint64(0) - 1<<22, 4, 4096, 4096, Read}, // ascends past the top
	}
	for i, c := range cases {
		got := strideStream(fast, c.base, c.w, c.stride, c.n, c.kind)
		var want sim.Duration
		for j := uint64(0); j < c.n; j++ {
			want += ref.AccessRange(c.base+uint64(c.stride)*j, c.w, c.kind)
		}
		if got != want {
			t.Fatalf("case %d: wrapped strideStream = %v, want %v", i, got, want)
		}
		if fast.Folds.Folded != 0 {
			t.Fatalf("case %d: wrapping stream folded: %+v", i, fast.Folds)
		}
		statesEqual(t, i, fast, ref)
	}
}

// TestFoldFreshSubarrayGuard pins the DRAM fresh-subarray guard on the
// stream's leading edge: subarrays the fold enters for the first time carry
// pre-stream open-row state, and a pre-opened row that flips the recorded
// first-touch outcome must cap the fold. The pre-traffic below opens row 0
// in subarrays beyond the warm-up — at an address sharing the row but not
// the cache line the stream reads, so the stream's access still reaches
// DRAM and sees a row hit where the recorded period saw a miss.
func TestFoldFreshSubarrayGuard(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	sub := fast.DRAM.SubarrayBytes()
	for j := uint64(8); j < 32; j++ {
		fast.AccessRange(j*sub+64, 4, Read)
		ref.AccessRange(j*sub+64, 4, Read)
	}
	base, stride, n := sub/2, int64(sub/2), uint64(40)
	got := strideStream(fast, base, 4, stride, n, Read)
	var want sim.Duration
	for i := uint64(0); i < n; i++ {
		want += ref.AccessRange(base+uint64(stride)*i, 4, Read)
	}
	if got != want {
		t.Fatalf("strideStream over pre-opened fresh subarrays = %v, want %v", got, want)
	}
	statesEqual(t, 0, fast, ref)
	if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
		t.Fatal("snapshots diverge after guarded stream")
	}
}

// TestStreamForceModes proves Reference mode disables folding entirely.
func TestStreamForceModes(t *testing.T) {
	h := New(DefaultConfig())
	h.Reference = true
	strideStream(h, 0, 4, 4096, 4096, Read)
	if h.Folds.Folded != 0 || h.Folds.FoldedIters != 0 {
		t.Fatalf("Reference hierarchy folded: %+v", h.Folds)
	}
	if h.Folds.ScalarIters != 4096 {
		t.Fatalf("scalar iterations %d, want 4096", h.Folds.ScalarIters)
	}
}

func BenchmarkStrideStream(b *testing.B) {
	b.Run("folded", func(b *testing.B) {
		h := New(DefaultConfig())
		strideStream(h, 0, 4, 4096, 16384, Read)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = strideStream(h, 0, 4, 4096, 16384, Read)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		h := New(DefaultConfig())
		h.Reference = true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = strideStream(h, 0, 4, 4096, 16384, Read)
		}
	})
}

// BenchmarkStreamLineRuns measures the guaranteed-hit line-run batcher on
// a median-style stream: four 2-byte accesses per iteration advancing by
// 2, whose fold period (256 Ki iterations) far exceeds the stream length.
func BenchmarkStreamLineRuns(b *testing.B) {
	accs := []StreamAcc{
		{Off: -4096, Size: 2, Count: 1, Kind: Read},
		{Off: 0, Size: 2, Count: 1, Kind: Read},
		{Off: 4096, Size: 2, Count: 1, Kind: Read},
		{Off: 1 << 21, Size: 2, Count: 1, Kind: Write},
	}
	b.Run("batched", func(b *testing.B) {
		h := New(DefaultConfig())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = h.StreamRun(1<<20, 2, 2048, accs)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		h := New(DefaultConfig())
		h.Reference = true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = h.StreamRun(1<<20, 2, 2048, accs)
		}
	})
}

// TestFoldDiagCounters checks the engagement accounting: every StreamRun
// invocation is classified exactly once (folded or one fallback reason),
// the counters surface in the snapshot's diagnostic namespace, and
// WithoutDiag strips them.
func TestFoldDiagCounters(t *testing.T) {
	h := New(DefaultConfig())
	strideStream(h, 0, 8, 65536, 20000, Read)           // long, short-period stride: folds
	strideStream(h, 0, 8, 7, 5000, Read)                // odd stride: enormous period
	strideStream(h, 0, 8, 8, 3, Read)                   // too short
	strideStream(h, ^uint64(0)-64, 8, 8192, 4096, Read) // would wrap
	strideStream(h, 0, 8, 0, 100, Read)                 // zero stride: ineligible

	f := h.Folds
	if f.Folded == 0 {
		t.Fatalf("long pow2 stream did not fold: %+v", f)
	}
	classified := f.Folded + f.FallbackIneligible + f.FallbackShort +
		f.FallbackWrap + f.FallbackUnverified + f.FallbackGuard
	if f.Streams != 5 || classified != f.Streams {
		t.Errorf("classification does not cover every stream: %+v", f)
	}

	r := obs.New()
	h.Observe(r, "mem")
	s := r.Snapshot()
	if got := s["mem.diag.fold_engaged"]; got != int64(f.Folded) {
		t.Errorf("mem.diag.fold_engaged = %d, want %d", got, f.Folded)
	}
	if got := s["mem.diag.fold_streams"]; got != int64(f.Streams) {
		t.Errorf("mem.diag.fold_streams = %d, want %d", got, f.Streams)
	}
	for _, k := range s.WithoutDiag().Names() {
		if obs.IsDiag(k) {
			t.Errorf("WithoutDiag kept diagnostic key %s", k)
		}
	}
	if _, ok := s.WithoutDiag()["mem.diag.fold_streams"]; ok {
		t.Error("WithoutDiag kept fold_streams")
	}
}

// TestStreamPerEntryStrideMatchesReference drives the flat stream batcher
// with heterogeneous per-entry stride overrides — the LCS row shape: a
// byte-stride operand read against halfword-stride table accesses — and
// requires exact equivalence with the scalar reference. Heterogeneous
// strides are ineligible for folding, so this pins the batched scalar
// path's per-entry address arithmetic.
func TestStreamPerEntryStrideMatchesReference(t *testing.T) {
	fast, ref := New(DefaultConfig()), New(DefaultConfig())
	ref.Reference = true
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 60; round++ {
		base := uint64(1)<<22 + uint64(rng.Intn(1<<20))
		n := uint64(rng.Intn(4000) + 1)
		bOff := -int64(rng.Intn(1 << 16))
		accs := []StreamAcc{
			{Off: bOff, Size: 1, Count: 1, Kind: Read, Stride: 1},
			{Off: -int64(n) * 2, Size: 2, Count: 1, Kind: Read},
			{Size: 2, Count: 1, Kind: Write},
		}
		if rng.Intn(3) == 0 {
			accs[1].Stride = 4 // three distinct rates in one stream
		}
		got := fast.StreamRun(base, 2, n, accs)
		var want sim.Duration
		for i := uint64(0); i < n; i++ {
			for k := range accs {
				a := &accs[k]
				addr := base + uint64(a.stride(2))*i + uint64(a.Off)
				want += ref.AccessRange(addr, a.Size, a.Kind)
			}
		}
		if got != want {
			t.Fatalf("round %d: StreamRun with stride overrides = %v, want %v", round, got, want)
		}
		statesEqual(t, round, fast, ref)
		if !bytes.Equal(snapshotJSON(t, fast), snapshotJSON(t, ref)) {
			t.Fatalf("round %d: snapshots diverge", round)
		}
	}
	if fast.Folds.FallbackIneligible == 0 {
		t.Fatalf("heterogeneous strides unexpectedly eligible: %+v", fast.Folds)
	}
}
