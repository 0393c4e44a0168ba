// Shared, memoized workload instances. The harness runs every benchmark at
// many problem sizes, twice per size (conventional and RADram) and more
// under sweeps, and the generators are deterministic — the same arguments
// always produce the same bytes. Memoizing them removes repeated generation
// from the measured wall-clock without touching anything simulated.
//
// Everything returned from the Shared* functions is SHARED AND READ-ONLY:
// callers must copy (e.g. into the simulated store, which always copies)
// rather than mutate.
//
// The memo is one lru.Cache bounded to inputBudget bytes. Its fills run
// outside the cache's lock: callers of one key share a single generation,
// callers of different keys generate concurrently. An input evicted under
// the budget is regenerated on its next use, byte-identical.
package workload

import (
	"fmt"

	"activepages/internal/lru"
)

// inputBudget bounds the bytes the memo holds. It is above every measured
// working set (104 MiB at most, the full "all" sweep; DESIGN.md §12), so no
// batch run evicts and each input is generated once, while a long-lived
// daemon serving many page sizes stays bounded.
const inputBudget = 128 << 20

// inputKind names which generator an entry came from.
type inputKind uint8

const (
	kindAddressBook inputKind = iota
	kindImage
	kindMedian
	kindMPEGFrame
	kindMPEGCorrected
	kindLCS
)

// inputKey identifies one generated input: its kind, its seed and up to
// two sizes (records; width and height; blocks; sequence lengths).
type inputKey struct {
	kind inputKind
	seed int64
	x, y int
}

// lcsInput is a memoized LCS problem: two sequences and their LCS length.
type lcsInput struct {
	a, b []byte
	want int
}

// memo is a bounded store of generated inputs.
type memo struct{ *lru.Cache[inputKey, any] }

func newMemo(budget uint64) memo { return memo{lru.New[inputKey, any](budget, inputBytes)} }

// inputs is the process-wide memo behind the Shared* functions.
var inputs = newMemo(inputBudget)

// inputBytes is an input's cost: the bytes of its backing arrays.
func inputBytes(v any) uint64 {
	switch v := v.(type) {
	case []byte:
		return uint64(len(v))
	case []int16:
		return 2 * uint64(len(v))
	case *Image:
		return 2 * uint64(len(v.Pix))
	case *MPEGFrame:
		return 2 * uint64(len(v.Reference)+len(v.Correction))
	case lcsInput:
		return uint64(len(v.a) + len(v.b))
	}
	panic(fmt.Sprintf("workload: no cost for memoized %T", v))
}

// shared returns the input stored under k, generating it on a miss.
func shared[V any](m memo, k inputKey, gen func() V) V {
	v, _, err := m.Do(k, func() (any, error) { return gen(), nil })
	if err != nil {
		panic(err) // the generation this call waited on panicked
	}
	return v.(V)
}

// InputMemoStats reports how many inputs the process-wide memo holds and
// their total bytes.
func InputMemoStats() (entries int, bytes uint64) {
	return inputs.Len(), inputs.TotalBytes()
}

// SharedAddressBook is a memoized AddressBook. The returned image is shared:
// treat it as read-only.
func SharedAddressBook(seed int64, n int) []byte { return inputs.addressBook(seed, n) }

func (m memo) addressBook(seed int64, n int) []byte {
	return shared(m, inputKey{kindAddressBook, seed, n, 0}, func() []byte { return AddressBook(seed, n) })
}

// SharedImage is a memoized NewImage. The returned image is shared: treat it
// as read-only.
func SharedImage(seed int64, w, h int) *Image { return inputs.image(seed, w, h) }

func (m memo) image(seed int64, w, h int) *Image {
	return shared(m, inputKey{kindImage, seed, w, h}, func() *Image { return NewImage(seed, w, h) })
}

// SharedMedianReference is the memoized MedianReference of SharedImage(seed,
// w, h). The returned image is shared: treat it as read-only.
func SharedMedianReference(seed int64, w, h int) *Image { return inputs.median(seed, w, h) }

func (m memo) median(seed int64, w, h int) *Image {
	return shared(m, inputKey{kindMedian, seed, w, h}, func() *Image {
		return m.image(seed, w, h).MedianReference()
	})
}

// SharedMPEGFrame is a memoized NewMPEGFrame. The returned frame is shared:
// treat it as read-only.
func SharedMPEGFrame(seed int64, blocks int) *MPEGFrame { return inputs.mpegFrame(seed, blocks) }

func (m memo) mpegFrame(seed int64, blocks int) *MPEGFrame {
	return shared(m, inputKey{kindMPEGFrame, seed, blocks, 0}, func() *MPEGFrame {
		return NewMPEGFrame(seed, blocks)
	})
}

// SharedMPEGCorrected is the memoized ApplyCorrectionReference of
// SharedMPEGFrame(seed, blocks). The returned samples are shared: treat
// them as read-only.
func SharedMPEGCorrected(seed int64, blocks int) []int16 { return inputs.mpegCorrected(seed, blocks) }

func (m memo) mpegCorrected(seed int64, blocks int) []int16 {
	return shared(m, inputKey{kindMPEGCorrected, seed, blocks, 0}, func() []int16 {
		return m.mpegFrame(seed, blocks).ApplyCorrectionReference()
	})
}

// SharedLCSInput is a memoized LCS problem: a is DNA(seed, n), b is a 20%
// mutation of DNA(seed, m) resliced to m bytes (so zero-padded when the
// mutation came out shorter), and want is their LCSReference length. The
// returned sequences are shared: treat them as read-only.
func SharedLCSInput(seed int64, n, m int) (a, b []byte, want int) {
	in := inputs.lcs(seed, n, m)
	return in.a, in.b, in.want
}

func (m memo) lcs(seed int64, n, cols int) lcsInput {
	return shared(m, inputKey{kindLCS, seed, n, cols}, func() lcsInput {
		a := DNA(seed, n)
		b := RelatedDNA(seed+1, DNA(seed, cols), 20)[:cols]
		return lcsInput{a, b, LCSReference(a, b)}
	})
}
