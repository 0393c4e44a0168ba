package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDurationUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatalf("Nanosecond = %d ps", Nanosecond)
	}
	if Second != 1000*Millisecond || Millisecond != 1000*Microsecond {
		t.Fatal("unit ladder broken")
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 1500 * Microsecond
	if got := tt.Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds = %v, want 1.5", got)
	}
	if got := tt.Microseconds(); got != 1500 {
		t.Errorf("Microseconds = %v, want 1500", got)
	}
	if got := tt.Seconds(); got != 0.0015 {
		t.Errorf("Seconds = %v, want 0.0015", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{1250 * Nanosecond, "1.25us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d ps String = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestMaxMin(t *testing.T) {
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Error("Max broken")
	}
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Error("Min broken")
	}
}

func TestClockGHz(t *testing.T) {
	c := NewClock(1_000_000_000) // 1 GHz
	if c.Period() != Nanosecond {
		t.Fatalf("1 GHz period = %v, want 1ns", c.Period())
	}
	if c.Cycles(50) != 50*Nanosecond {
		t.Errorf("50 cycles = %v", c.Cycles(50))
	}
	if c.CyclesIn(1*Microsecond) != 1000 {
		t.Errorf("cycles in 1us = %d", c.CyclesIn(1*Microsecond))
	}
}

func TestClockMHz(t *testing.T) {
	c := NewClock(100_000_000) // 100 MHz logic clock
	if c.Period() != 10*Nanosecond {
		t.Fatalf("100 MHz period = %v, want 10ns", c.Period())
	}
}

func TestClockPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 Hz clock")
		}
	}()
	NewClock(0)
}

func TestClockPeriodConstructor(t *testing.T) {
	c := NewClockPeriod(2 * Nanosecond)
	if c.Period() != 2*Nanosecond || c.CyclesIn(Second) != 500_000_000 {
		t.Errorf("period %v, %d cycles per second; want 2ns at 500 MHz", c.Period(), c.CyclesIn(Second))
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var fired []int
	q.Schedule(30, func(Time) { fired = append(fired, 3) })
	q.Schedule(10, func(Time) { fired = append(fired, 1) })
	q.Schedule(20, func(Time) { fired = append(fired, 2) })
	q.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %v, want 30", q.Now())
	}
}

func TestQueueStableSameTime(t *testing.T) {
	var q Queue
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func(Time) { fired = append(fired, i) })
	}
	q.Run()
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events reordered: %v", fired)
		}
	}
}

func TestQueueCancel(t *testing.T) {
	var q Queue
	fired := false
	ev := q.Schedule(10, func(Time) { fired = true })
	q.Cancel(ev)
	q.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel is a no-op.
	q.Cancel(ev)
	q.Cancel(nil)
}

func TestQueueRunUntil(t *testing.T) {
	var q Queue
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		q.Schedule(at, func(tm Time) { fired = append(fired, tm) })
	}
	q.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %d events before deadline, want 2", len(fired))
	}
	if q.Now() != 20 {
		t.Errorf("Now = %v, want deadline 20", q.Now())
	}
	q.Run()
	if len(fired) != 3 {
		t.Errorf("remaining event did not fire")
	}
}

func TestQueueSchedulingDuringDispatch(t *testing.T) {
	var q Queue
	var fired []Time
	q.Schedule(10, func(tm Time) {
		fired = append(fired, tm)
		q.Schedule(tm+5, func(tm2 Time) { fired = append(fired, tm2) })
	})
	q.Run()
	if len(fired) != 2 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestQueuePanicsOnPastEvent(t *testing.T) {
	var q Queue
	q.Schedule(10, func(Time) {})
	q.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	q.Schedule(5, func(Time) {})
}

func TestQueueNextAt(t *testing.T) {
	var q Queue
	if _, ok := q.NextAt(); ok {
		t.Fatal("empty queue reported a next event")
	}
	q.Schedule(42, func(Time) {})
	at, ok := q.NextAt()
	if !ok || at != 42 {
		t.Fatalf("NextAt = %v, %v", at, ok)
	}
}

// Property: dispatch order equals sorted order of scheduled times for any
// random set of times.
func TestQueueDispatchOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		var q Queue
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			q.Schedule(at, func(tm Time) { fired = append(fired, tm) })
		}
		q.Run()
		want := make([]Time, len(raw))
		for i, r := range raw {
			want[i] = Time(r)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(fired) != len(want) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueRandomizedCancelStress(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	var events []*Event
	firedCount := 0
	for i := 0; i < 1000; i++ {
		ev := q.Schedule(Time(rng.Intn(10000)), func(Time) { firedCount++ })
		events = append(events, ev)
	}
	cancelled := 0
	for _, ev := range events {
		if rng.Intn(2) == 0 {
			q.Cancel(ev)
			cancelled++
		}
	}
	q.Run()
	if firedCount != 1000-cancelled {
		t.Fatalf("fired %d, want %d", firedCount, 1000-cancelled)
	}
}

func BenchmarkQueueScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var q Queue
		for j := 0; j < 100; j++ {
			q.Schedule(Time(j*37%100), func(Time) {})
		}
		q.Run()
	}
}
