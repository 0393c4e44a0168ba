// Package sim provides the discrete-event simulation kernel shared by every
// component of the RADram simulator: a picosecond-resolution clock, duration
// helpers, and a deterministic event queue.
//
// All timing in the simulator is expressed in Time (picoseconds). Using
// picoseconds keeps every clock domain exact: a 1 GHz processor cycle is
// 1000 ps, the 10 ns memory-bus beat is 10000 ps, and a 100 MHz logic cycle
// is 10000 ps, so no clock-domain crossing ever rounds.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is a point in simulated time, in picoseconds since simulation start.
type Time uint64

// Duration is a span of simulated time, in picoseconds.
type Duration = Time

// Common durations.
const (
	Picosecond  Duration = 1
	Nanosecond  Duration = 1000 * Picosecond
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Nanoseconds reports t as a floating-point count of nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Microseconds reports t as a floating-point count of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds reports t as a floating-point count of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t as a floating-point count of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with an auto-selected unit, e.g. "1.25ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.4gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.4gms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.4gus", t.Microseconds())
	case t >= Nanosecond:
		return fmt.Sprintf("%.4gns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", uint64(t))
	}
}

// Max returns the later of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of a and b.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Clock converts between cycles of a fixed-frequency clock domain and Time.
type Clock struct {
	period Duration // picoseconds per cycle
}

// NewClock returns a clock with the given frequency in hertz.
// It panics if the frequency does not divide one second exactly,
// which holds for every frequency used by the simulator (MHz and GHz rates).
func NewClock(hz uint64) Clock {
	if hz == 0 {
		panic("sim: zero-frequency clock")
	}
	if uint64(Second)%hz != 0 {
		panic(fmt.Sprintf("sim: %d Hz does not divide a second exactly", hz))
	}
	return Clock{period: Duration(uint64(Second) / hz)}
}

// NewClockPeriod returns a clock with an explicit period.
func NewClockPeriod(period Duration) Clock {
	if period == 0 {
		panic("sim: zero-period clock")
	}
	return Clock{period: period}
}

// Period returns the duration of one cycle.
func (c Clock) Period() Duration { return c.period }

// Cycles converts a cycle count into a duration.
func (c Clock) Cycles(n uint64) Duration { return Duration(n) * c.period }

// CyclesIn reports how many full cycles fit in d.
func (c Clock) CyclesIn(d Duration) uint64 { return uint64(d) / uint64(c.period) }

// Event is a scheduled callback. Events with equal times fire in insertion
// order, which keeps simulations deterministic.
type Event struct {
	At Time
	Fn func(Time)

	seq   uint64
	index int
}

// Queue is a deterministic time-ordered event queue.
//
// The zero value is ready to use.
type Queue struct {
	h   eventHeap
	seq uint64
	now Time
}

// Now returns the current simulation time of the queue: the time of the most
// recently dispatched event.
func (q *Queue) Now() Time { return q.now }

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Schedule enqueues fn to run at time at. Scheduling in the past (before the
// last dispatched event) is an error in the simulation and panics.
func (q *Queue) Schedule(at Time, fn func(Time)) *Event {
	if at < q.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before current time %v", at, q.now))
	}
	ev := &Event{At: at, Fn: fn, seq: q.seq}
	q.seq++
	heap.Push(&q.h, ev)
	return ev
}

// Cancel removes a pending event. Cancelling an already-fired or already-
// cancelled event is a no-op.
func (q *Queue) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 || ev.index >= len(q.h) || q.h[ev.index] != ev {
		return
	}
	heap.Remove(&q.h, ev.index)
	ev.index = -1
}

// Step dispatches the earliest pending event and returns true, or returns
// false if the queue is empty.
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	ev := heap.Pop(&q.h).(*Event)
	q.now = ev.At
	ev.Fn(ev.At)
	return true
}

// RunUntil dispatches events with At <= deadline and advances the clock to
// the deadline. Events scheduled by fired events are dispatched too if they
// fall within the deadline.
func (q *Queue) RunUntil(deadline Time) {
	for len(q.h) > 0 && q.h[0].At <= deadline {
		q.Step()
	}
	if deadline > q.now {
		q.now = deadline
	}
}

// Run dispatches events until the queue is empty and returns the final time.
func (q *Queue) Run() Time {
	for q.Step() {
	}
	return q.now
}

// NextAt returns the time of the earliest pending event and true, or 0 and
// false if none is pending.
func (q *Queue) NextAt() (Time, bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
