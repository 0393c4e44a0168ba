package workload

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// checkTwins asserts that every memoized input of m equals a fresh run of
// its generator: the memo's reference twin.
func checkTwins(t *testing.T, m memo, seed int64) {
	t.Helper()
	if got, want := m.addressBook(seed, 50), AddressBook(seed, 50); !bytes.Equal(got, want) {
		t.Errorf("seed %d: memoized address book differs from AddressBook", seed)
	}
	if got, want := m.image(seed, 24, 16), NewImage(seed, 24, 16); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: memoized image differs from NewImage", seed)
	}
	if got, want := m.median(seed, 24, 16), NewImage(seed, 24, 16).MedianReference(); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: memoized median differs from MedianReference", seed)
	}
	if got, want := m.mpegFrame(seed, 6), NewMPEGFrame(seed, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: memoized MPEG frame differs from NewMPEGFrame", seed)
	}
	if got, want := m.mpegCorrected(seed, 6), NewMPEGFrame(seed, 6).ApplyCorrectionReference(); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: memoized correction differs from ApplyCorrectionReference", seed)
	}
	a, b := DNA(seed, 40), RelatedDNA(seed+1, DNA(seed, 32), 20)[:32]
	if got, want := m.lcs(seed, 40, 32), (lcsInput{a, b, LCSReference(a, b)}); !reflect.DeepEqual(got, want) {
		t.Errorf("seed %d: memoized LCS input differs from its generators", seed)
	}
}

func TestSharedMatchesGenerators(t *testing.T) {
	m := newMemo(inputBudget)
	for seed := int64(1); seed <= 3; seed++ {
		checkTwins(t, m, seed)
		checkTwins(t, m, seed) // second pass: every call is a hit
	}
	if got := m.Len(); got != 3*6 {
		t.Errorf("memo holds %d inputs, want 18", got)
	}
	// The package-level functions read the process-wide memo.
	if !bytes.Equal(SharedAddressBook(7, 10), AddressBook(7, 10)) ||
		!reflect.DeepEqual(SharedMedianReference(7, 8, 8), NewImage(7, 8, 8).MedianReference()) {
		t.Error("Shared* differs from its generator")
	}
}

// A memo far smaller than its working set evicts, stays within budget, and
// regenerates what it evicted byte-identical.
func TestSharedEvictsWithinBudgetAndRegenerates(t *testing.T) {
	const budget = 16 << 10
	m := newMemo(budget)
	for round := 0; round < 2; round++ {
		for seed := int64(1); seed <= 4; seed++ {
			checkTwins(t, m, seed)
			if got := m.TotalBytes(); got > budget {
				t.Fatalf("memo holds %d bytes, budget %d", got, budget)
			}
		}
	}
	if m.Len() >= 4*6 {
		t.Fatalf("memo holds all %d inputs: nothing was evicted", m.Len())
	}
	// An evicted book comes back as a new, identical array.
	first := m.addressBook(1, 50)
	for seed := int64(2); seed <= 8; seed++ {
		m.addressBook(seed, 50)
	}
	again := m.addressBook(1, 50)
	if &first[0] == &again[0] {
		t.Fatal("book survived a working set 8x the budget")
	}
	if !bytes.Equal(first, again) {
		t.Fatal("regenerated book differs from the evicted one")
	}
}

// Concurrent callers of one key share a single generation and its array.
func TestSharedOneFillPerKey(t *testing.T) {
	m := newMemo(inputBudget)
	var fills atomic.Int32
	gen := func() []byte {
		fills.Add(1)
		// Widens the window in which the other callers find this fill
		// running; the assertions below hold whether they wait or hit.
		time.Sleep(10 * time.Millisecond)
		return AddressBook(1, 100)
	}
	const callers = 8
	got := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = shared(m, inputKey{kindAddressBook, 1, 100, 0}, gen)
		}()
	}
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Fatalf("%d fills for one key, want 1", n)
	}
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d got its own array", i)
		}
	}
}

// A slow generation of one key does not hold up a generation of another.
func TestSharedSlowFillDoesNotBlockOtherKeys(t *testing.T) {
	m := newMemo(inputBudget)
	release := make(chan struct{})
	started := make(chan struct{})
	slowDone := make(chan []byte)
	go func() {
		slowDone <- shared(m, inputKey{kindAddressBook, 1, 10, 0}, func() []byte {
			close(started)
			<-release
			return AddressBook(1, 10)
		})
	}()
	<-started
	fast := make(chan []byte)
	go func() { fast <- m.addressBook(2, 10) }()
	select {
	case b := <-fast:
		if !bytes.Equal(b, AddressBook(2, 10)) {
			t.Error("fast key got the wrong book")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("another key's fill waited on a slow fill")
	}
	close(release)
	if b := <-slowDone; !bytes.Equal(b, AddressBook(1, 10)) {
		t.Error("slow key got the wrong book")
	}
}
