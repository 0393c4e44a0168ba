package lru

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// item is a test value: id tells writers apart, cost is what the cache
// charges for it.
type item struct {
	id   int
	cost uint64
}

func itemCost(v item) uint64 { return v.cost }

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string](100, itemCost)
	if ev := c.Add("a", item{1, 40}); ev != nil {
		t.Fatalf("add a evicted %v", ev)
	}
	if ev := c.Add("b", item{2, 40}); ev != nil {
		t.Fatalf("add b evicted %v", ev)
	}
	// Touch a so b becomes the victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a not cached")
	}
	if ev := c.Add("c", item{3, 40}); !reflect.DeepEqual(ev, []item{{2, 40}}) {
		t.Fatalf("add c evicted %v, want exactly b", ev)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction; want it chosen as least recently used")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s (recently used or just stored) must survive", k)
		}
	}
	if c.Len() != 2 || c.TotalBytes() != 80 {
		t.Errorf("Len, TotalBytes = %d, %d; want 2, 80", c.Len(), c.TotalBytes())
	}
}

func TestAddFirstWriterWins(t *testing.T) {
	c := New[string](100, itemCost)
	c.Add("k", item{1, 10})
	c.Add("other", item{2, 10})
	if ev := c.Add("k", item{3, 999}); ev != nil {
		t.Fatalf("second add of k evicted %v", ev)
	}
	if got, _ := c.Get("k"); got.id != 1 {
		t.Errorf("k holds writer %d, want the first writer", got.id)
	}
	if c.Len() != 2 || c.TotalBytes() != 20 {
		t.Errorf("Len, TotalBytes = %d, %d; want 2, 20 (the second value is dropped)", c.Len(), c.TotalBytes())
	}
	// The second add refreshed k, so a third entry that overflows the
	// budget evicts "other".
	c = New[string](25, itemCost)
	c.Add("k", item{1, 10})
	c.Add("other", item{2, 10})
	c.Add("k", item{3, 10})
	if ev := c.Add("new", item{4, 10}); !reflect.DeepEqual(ev, []item{{2, 10}}) {
		t.Errorf("evicted %v, want the entry not refreshed by the repeated add", ev)
	}
}

func TestOversizedEntryKeptWhileNewest(t *testing.T) {
	c := New[string](10, itemCost)
	c.Add("a", item{1, 3})
	c.Add("b", item{2, 3})
	if ev := c.Add("big", item{3, 50}); !reflect.DeepEqual(ev, []item{{1, 3}, {2, 3}}) {
		t.Fatalf("add big evicted %v, want a then b", ev)
	}
	if _, ok := c.Get("big"); !ok || c.Len() != 1 || c.TotalBytes() != 50 {
		t.Fatalf("big kept=%v Len=%d TotalBytes=%d; want the newest entry kept over budget", ok, c.Len(), c.TotalBytes())
	}
	if ev := c.Add("c", item{4, 1}); !reflect.DeepEqual(ev, []item{{3, 50}}) {
		t.Errorf("add c evicted %v, want big once it is no longer the newest", ev)
	}
}

// TestDoNeverEvictsRunningFill stores past the budget while a fill is
// running: the running fill has no cost yet and is never a victim, and its
// recency counts from when it started.
func TestDoNeverEvictsRunningFill(t *testing.T) {
	c := New[string](10, itemCost)
	filling, release := make(chan struct{}), make(chan struct{})
	done := make(chan item)
	go func() {
		v, _, _ := c.Do("slow", func() (item, error) {
			close(filling)
			<-release
			return item{1, 3}, nil
		})
		done <- v
	}()
	<-filling
	c.Add("a", item{2, 5})
	if ev := c.Add("b", item{3, 20}); !reflect.DeepEqual(ev, []item{{2, 5}}) {
		t.Fatalf("add b evicted %v, want only a (the running fill is not a victim)", ev)
	}
	if c.Len() != 2 || c.TotalBytes() != 20 {
		t.Fatalf("Len, TotalBytes = %d, %d; want 2, 20 (a running fill counts as held, costs nothing)", c.Len(), c.TotalBytes())
	}
	close(release)
	<-done
	if _, ok := c.Get("b"); ok {
		t.Error("b survived the fill's store; want it evicted as over budget")
	}
	if v, ok := c.Get("slow"); !ok || v.id != 1 || c.TotalBytes() != 3 {
		t.Errorf("slow = %v, %v with TotalBytes %d; want the fill's value stored", v, ok, c.TotalBytes())
	}
}

// TestDoSingleflight runs 8 concurrent callers of one key: exactly one
// fill runs and every caller gets its value.
func TestDoSingleflight(t *testing.T) {
	const callers = 8
	c := New[string](100, itemCost)
	var fills, hits atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.Do("k", func() (item, error) {
				fills.Add(1)
				<-release
				return item{7, 1}, nil
			})
			if err != nil || v.id != 7 {
				t.Errorf("Do = %v, %v; want the fill's value", v, err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// The pause lets the callers pile up on the running fill. The
	// assertions hold without it: a late caller finds the stored value.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if fills.Load() != 1 || hits.Load() != callers-1 {
		t.Errorf("fills=%d hits=%d, want 1 and %d", fills.Load(), hits.Load(), callers-1)
	}
}

// TestDoErrorNotCached runs 8 concurrent callers into a failing fill:
// every caller gets the error and the key stays absent, so the next Do
// fills again.
func TestDoErrorNotCached(t *testing.T) {
	const callers = 8
	c := New[string](100, itemCost)
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Do("k", func() (item, error) {
				<-release
				return item{}, boom
			}); !errors.Is(err, boom) {
				t.Errorf("Do error = %v, want the fill's error", err)
			}
		}()
	}
	// As in TestDoSingleflight; a late caller runs a fill that fails too.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if c.Len() != 0 || c.TotalBytes() != 0 {
		t.Fatalf("Len, TotalBytes = %d, %d after a failed fill; want 0, 0", c.Len(), c.TotalBytes())
	}
	v, hit, err := c.Do("k", func() (item, error) { return item{2, 1}, nil })
	if hit || err != nil || v.id != 2 {
		t.Errorf("Do after a failed fill = %v, %v, %v; want a fresh fill", v, hit, err)
	}
}

// TestDoFillPanic checks that a panicking fill (a canceled simulation
// unwinds this way) propagates to its caller, hands waiters an error and
// leaves the key free for a later fill instead of blocking it forever.
func TestDoFillPanic(t *testing.T) {
	c := New[string](100, itemCost)
	filling, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (item, error) {
			close(filling)
			<-release
			panic("canceled")
		})
	}()
	<-filling
	waiter := make(chan error)
	go func() {
		_, _, err := c.Do("k", func() (item, error) { return item{3, 1}, nil })
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond)
	close(release)
	if v := <-recovered; v != "canceled" {
		t.Fatalf("recovered %v, want the fill's panic", v)
	}
	// A waiter that arrived in time gets ErrFillPanicked; a late one ran
	// its own fill.
	if err := <-waiter; err != nil && !errors.Is(err, ErrFillPanicked) {
		t.Errorf("waiter error = %v, want ErrFillPanicked or a fill of its own", err)
	}
	v, _, err := c.Do("k", func() (item, error) { return item{3, 1}, nil })
	if err != nil || v.cost != 1 {
		t.Errorf("Do after a panicked fill = %v, %v; want a stored value", v, err)
	}
}

// model is the stamp-scan reference: every touch takes a new stamp and
// eviction repeatedly scans for the oldest entry other than the one just
// stored. The cache must behave exactly like it.
type model struct {
	budget, total, stamp uint64
	entries              map[byte]*modelEntry
}

type modelEntry struct {
	val   item
	stamp uint64
}

func (m *model) get(k byte) (item, bool) {
	e, ok := m.entries[k]
	if !ok {
		return item{}, false
	}
	m.stamp++
	e.stamp = m.stamp
	return e.val, true
}

func (m *model) add(k byte, v item) (evicted []item) {
	if _, ok := m.get(k); ok {
		return nil
	}
	m.stamp++
	keep := &modelEntry{v, m.stamp}
	m.entries[k] = keep
	m.total += v.cost
	for m.total > m.budget {
		var vk byte
		var victim *modelEntry
		for k, e := range m.entries {
			if e != keep && (victim == nil || e.stamp < victim.stamp) {
				vk, victim = k, e
			}
		}
		if victim == nil {
			break
		}
		m.total -= victim.val.cost
		delete(m.entries, vk)
		evicted = append(evicted, victim.val)
	}
	return evicted
}

// FuzzCacheMatchesModel drives the cache and the model with one
// fuzzer-picked sequence of Add/Get/Do calls and compares every result.
// Each op is three bytes: kind (and, for Do, whether the fill fails), key,
// cost.
func FuzzCacheMatchesModel(f *testing.F) {
	f.Add(uint8(100), []byte{0, 1, 40, 0, 2, 40, 1, 1, 0, 0, 3, 40})
	f.Add(uint8(10), []byte{2, 1, 3, 6, 2, 5, 0, 3, 200, 2, 1, 1, 1, 3, 0})
	f.Add(uint8(0), []byte{0, 0, 0, 0, 1, 0, 2, 2, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		c := New[byte](uint64(budget), itemCost)
		m := &model{budget: uint64(budget), entries: make(map[byte]*modelEntry)}
		failed := errors.New("fill failed")
		for i := 0; i+2 < len(ops); i += 3 {
			k, v := ops[i+1]%8, item{i, uint64(ops[i+2] % 64)}
			var got, want string
			switch ops[i] % 3 {
			case 0:
				got = fmt.Sprint(c.Add(k, v))
				want = fmt.Sprint(m.add(k, v))
			case 1:
				gv, gok := c.Get(k)
				wv, wok := m.get(k)
				got, want = fmt.Sprint(gv, gok), fmt.Sprint(wv, wok)
			case 2:
				fail := ops[i]&4 != 0
				gv, ghit, gerr := c.Do(k, func() (item, error) {
					if fail {
						return item{}, failed
					}
					return v, nil
				})
				wv, whit := m.get(k)
				var werr error
				if !whit && fail {
					wv, werr = item{}, failed
				} else if !whit {
					wv = v
					m.add(k, v)
				}
				got, want = fmt.Sprint(gv, ghit, gerr), fmt.Sprint(wv, whit, werr)
			}
			if got != want {
				t.Fatalf("op %d (%v): cache %s, model %s", i/3, ops[i:i+3], got, want)
			}
			if c.Len() != len(m.entries) || c.TotalBytes() != m.total {
				t.Fatalf("op %d (%v): cache Len=%d TotalBytes=%d, model %d, %d",
					i/3, ops[i:i+3], c.Len(), c.TotalBytes(), len(m.entries), m.total)
			}
		}
	})
}
