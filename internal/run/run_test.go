package run

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"activepages/internal/radram"
)

// TestMapDeterministicAcrossJobs: the merged output of a parallel sweep
// must be identical to the serial one, whatever the worker count.
func TestMapDeterministicAcrossJobs(t *testing.T) {
	const n = 64
	fn := func(i int) (string, error) {
		// A tiny real simulation per point: machine construction plus some
		// accounted work, so scheduling differences would surface if any
		// state were shared.
		m := NewConventional(radram.DefaultConfig().WithPageBytes(64 * 1024))
		m.CPU.Compute(uint64(i + 1))
		return fmt.Sprintf("%d:%v", i, m.Elapsed()), nil
	}
	serial, err := Map(&Runner{Jobs: 1}, n, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		par, err := Map(&Runner{Jobs: jobs}, n, fn)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("jobs=%d output differs from serial:\n%v\nvs\n%v", jobs, par, serial)
		}
	}
}

// TestMapNilRunner: a nil runner is the serial no-metrics default.
func TestMapNilRunner(t *testing.T) {
	got, err := Map(nil, 3, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 4}) {
		t.Fatalf("nil-runner map = %v", got)
	}
	var r *Runner
	r.Collect(nil) // must not panic
}

// TestMapPanicRecovery: a crashed run becomes a structured error instead
// of killing the sweep, and the reported index is the lowest failure.
func TestMapPanicRecovery(t *testing.T) {
	for _, jobs := range []int{1, 8} {
		results, err := Map(&Runner{Jobs: jobs}, 16, func(i int) (int, error) {
			if i == 5 || i == 11 {
				panic(fmt.Sprintf("boom at %d", i))
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("jobs=%d: panic not surfaced", jobs)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("jobs=%d: error %T does not unwrap to *PanicError", jobs, err)
		}
		if pe.Index != 5 {
			t.Errorf("jobs=%d: reported index %d, want lowest failing 5", jobs, pe.Index)
		}
		if !strings.Contains(err.Error(), "boom at 5") || len(pe.Stack) == 0 {
			t.Errorf("jobs=%d: panic error lost value or stack: %v", jobs, err)
		}
		// Non-panicking points still completed.
		if results[0] != 0 || results[15] != 15 {
			t.Errorf("jobs=%d: healthy results lost: %v", jobs, results)
		}
	}
}

// TestMapErrorIsLowestIndex: error selection must not depend on which
// worker finishes first.
func TestMapErrorIsLowestIndex(t *testing.T) {
	_, err := Map(&Runner{Jobs: 8}, 32, func(i int) (int, error) {
		if i >= 7 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "fail 7") {
		t.Fatalf("error = %v, want lowest failing index 7", err)
	}
}

// TestCollectorMergeParallel: per-run metric snapshots merge correctly
// across the worker pool (run with -race to check synchronization).
func TestCollectorMergeParallel(t *testing.T) {
	r := (&Runner{Jobs: 8}).WithMetrics()
	const n = 40
	_, err := Map(r, n, func(i int) (struct{}, error) {
		m := NewConventional(radram.DefaultConfig().WithPageBytes(64 * 1024))
		m.CPU.Compute(10)
		r.Collect(m.Snapshot())
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Metrics.Snapshot()
	if snap["runs"] != n {
		t.Fatalf("merged %d runs, want %d", snap["runs"], n)
	}
	if got := snap["proc.instructions"]; got != 10*n {
		t.Fatalf("merged proc.instructions = %d, want %d", got, 10*n)
	}
}

// TestMachinePairIsolation: the pair builder yields fully independent
// instances wired to independent stores and hierarchies.
func TestMachinePairIsolation(t *testing.T) {
	conv, rad, err := NewPair(radram.DefaultConfig().WithPageBytes(64 * 1024))
	if err != nil {
		t.Fatal(err)
	}
	if conv.AP != nil {
		t.Fatal("conventional machine has an Active-Page system")
	}
	if rad.AP == nil {
		t.Fatal("RADram machine missing its Active-Page system")
	}
	if conv.Store == rad.Store || conv.Hier == rad.Hier || conv.CPU == rad.CPU {
		t.Fatal("machine pair shares components")
	}
	conv.CPU.Compute(100)
	if rad.Elapsed() != 0 {
		t.Fatal("work on one machine advanced the other's clock")
	}
	// Both machines observe through their own registries.
	if conv.Snapshot()["proc.instructions"] != 100 || rad.Snapshot()["proc.instructions"] != 0 {
		t.Fatal("metrics registries are not isolated")
	}
}

// TestMachineMetricsRegistered: the machine registers processor, memory,
// and Active-Page metrics.
func TestMachineMetricsRegistered(t *testing.T) {
	m := MustNew(radram.DefaultConfig().WithPageBytes(64 * 1024))
	snap := m.Snapshot()
	for _, want := range []string{"proc.compute_ns", "mem.l1d.hits", "mem.bus.bytes",
		"mem.dram.accesses", "ap.activations"} {
		if _, ok := snap[want]; !ok {
			t.Errorf("metric %s not registered (have %v)", want, snap.Names())
		}
	}
}

// TestClusterWiring: the SMP builder shares store and hierarchy but gives
// every processor its own timeline and Active-Page view.
func TestClusterWiring(t *testing.T) {
	c, err := NewCluster(radram.DefaultConfig().WithPageBytes(64*1024), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.CPUs) != 4 || len(c.APs) != 4 {
		t.Fatalf("cluster has %d CPUs / %d APs, want 4/4", len(c.CPUs), len(c.APs))
	}
	for i, p := range c.CPUs {
		if p.Store() != c.Store || p.Hierarchy() != c.Hier {
			t.Fatalf("CPU %d not wired to the shared store/hierarchy", i)
		}
	}
	c.CPUs[0].Compute(50)
	if c.CPUs[1].Now() != 0 {
		t.Fatal("cluster processors share a timeline")
	}
	if got := c.Metrics.Snapshot()["proc.instructions"]; got != 50 {
		t.Fatalf("cluster merged proc.instructions = %d, want 50", got)
	}
}

// TestMapCancellation: a canceled runner context stops the sweep at
// point granularity — points not yet started fail with the context's
// error instead of simulating, and Map reports the cancellation.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	r := &Runner{Jobs: 1, Context: ctx}
	_, err := Map(r, 10, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			cancel() // the abandoning caller, e.g. apserved's RunTimeout
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Map err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("%d points ran after cancellation at point 2, want 3", got)
	}
}

// TestMapNilContext: a runner without a context never reports
// cancellation.
func TestMapNilContext(t *testing.T) {
	out, err := Map(&Runner{Jobs: 4}, 8, func(i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if len(out) != 8 {
		t.Fatalf("got %d results, want 8", len(out))
	}
}
