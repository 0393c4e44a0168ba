// Package lru is the repository's one bounded store: a mutex-guarded,
// cost-budgeted least-recently-used cache with a singleflight fill. The
// machine-run result memo, the benchmark input memo (workload.Shared*),
// the daemon's result cache, the router's trace store and the daemon's run
// retention and tombstones are all instances of it, so exactly one piece
// of code chooses an eviction victim.
//
// Policy: every entry carries a cost, fixed when its value is stored.
// Whenever the total cost exceeds the budget, the least recently used
// stored entries are evicted until it fits again, except that the entry
// just stored and entries whose fill is still running are never evicted.
// Recency is refreshed by Get, Do and by Add of a key already present;
// a Do entry's recency starts when its fill starts.
package lru

import (
	"container/list"
	"errors"
	"sync"
)

// ErrFillPanicked is what concurrent waiters of a Do fill receive when
// the fill panicked; the panic itself continues in the filling goroutine.
var ErrFillPanicked = errors.New("lru: fill panicked")

// Cache is a cost-bounded LRU map, safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget uint64
	cost   func(V) uint64
	total  uint64
	order  *list.List // of *entry[K, V], most recently used at the front
	items  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost uint64
	// stored is set once val holds the entry's value and its cost is
	// counted; until then a Do fill is running and ready is open.
	stored bool
	ready  chan struct{}
	err    error
}

// New returns a cache that evicts beyond budget total cost, where cost
// reports one value's cost (bytes, or 1 to bound the entry count).
func New[K comparable, V any](budget uint64, cost func(V) uint64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, cost: cost, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value stored under key and refreshes its recency. A key
// whose Do fill is still running is not yet stored and reports false.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if e := el.Value.(*entry[K, V]); e.stored {
			c.order.MoveToFront(el)
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

// Add stores v under key and returns the values evicted to make room.
// The first writer wins: if key is already present (stored or being
// filled), Add only refreshes its recency and v is dropped.
func (c *Cache[K, V]) Add(key K, v V) (evicted []V) {
	cost := c.cost(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return nil
	}
	el := c.order.PushFront(&entry[K, V]{key: key, val: v, cost: cost, stored: true})
	c.items[key] = el
	c.total += cost
	return c.evictLocked(el)
}

// Do returns the value stored under key, running fill to produce it if
// none is. Concurrent callers of one key wait for a single fill; hit
// reports whether the value came from the cache, including by waiting out
// another caller's fill. A fill error (or panic) reaches every caller
// waiting on it but is not stored, so a later Do fills again.
func (c *Cache[K, V]) Do(key K, fill func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*entry[K, V])
		if e.stored {
			c.mu.Unlock()
			return e.val, true, nil
		}
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &entry[K, V]{key: key, ready: make(chan struct{})}
	el := c.order.PushFront(e)
	c.items[key] = el
	c.mu.Unlock()

	e.err = ErrFillPanicked
	defer func() {
		var cost uint64
		if e.err == nil {
			cost = c.cost(e.val)
		}
		c.mu.Lock()
		if e.err != nil {
			c.order.Remove(el)
			delete(c.items, key)
		} else {
			e.cost, e.stored = cost, true
			c.total += cost
			c.evictLocked(el)
		}
		c.mu.Unlock()
		close(e.ready)
	}()
	e.val, e.err = fill()
	return e.val, false, e.err
}

// evictLocked drops least recently used stored entries, never keep, until
// the total cost fits the budget or nothing else can go.
func (c *Cache[K, V]) evictLocked(keep *list.Element) (evicted []V) {
	for el := c.order.Back(); el != nil && c.total > c.budget; {
		prev := el.Prev()
		if e := el.Value.(*entry[K, V]); e.stored && el != keep {
			c.order.Remove(el)
			delete(c.items, e.key)
			c.total -= e.cost
			evicted = append(evicted, e.val)
		}
		el = prev
	}
	return evicted
}

// Len reports how many keys the cache holds, including running fills.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// TotalBytes reports the total cost of the stored entries.
func (c *Cache[K, V]) TotalBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
