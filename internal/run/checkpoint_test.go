package run_test

import (
	"bytes"
	"maps"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// diagTotal sums the per-machine memo diagnostics with one suffix
// across both machine prefixes of a measured point's snapshot.
func diagTotal(s obs.Snapshot, suffix string) int64 {
	var n int64
	for k, v := range s {
		if len(k) >= len(suffix) && k[len(k)-len(suffix):] == suffix {
			n += v
		}
	}
	return n
}

// TestCheckpointVsColdEquivalence runs the same measured point through a
// memoizing runner and a cold runner: measurements and non-diagnostic
// snapshots must be identical, the second memoized measurement must be
// answered by the memo (hit diagnostics), and that answer must still
// match the cold one.
func TestCheckpointVsColdEquivalence(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	b := array.Benchmark{}

	cold := &run.Runner{Jobs: 1}
	mc, sc, err := apps.MeasureObservedWith(cold, b, cfg, 2)
	if err != nil {
		t.Fatalf("cold measure: %v", err)
	}

	cached := &run.Runner{Jobs: 1, Checkpoints: run.NewCheckpointCache(0)}
	m1, s1, err := apps.MeasureObservedWith(cached, b, cfg, 2)
	if err != nil {
		t.Fatalf("cached measure: %v", err)
	}
	if m1 != mc {
		t.Fatalf("cached measurement differs from cold: %+v != %+v", m1, mc)
	}
	j1, _ := s1.WithoutDiag().JSON()
	jc, _ := sc.WithoutDiag().JSON()
	if !bytes.Equal(j1, jc) {
		t.Fatal("cached snapshot differs from cold (excluding diagnostics)")
	}
	if hits := diagTotal(s1, "diag.checkpoint_cold"); hits != 2 {
		t.Fatalf("first cached point: %d cold runs recorded, want 2", hits)
	}

	m2, s2, err := apps.MeasureObservedWith(cached, b, cfg, 2)
	if err != nil {
		t.Fatalf("second cached measure: %v", err)
	}
	if m2 != mc {
		t.Fatalf("memo-hit measurement differs from cold: %+v != %+v", m2, mc)
	}
	j2, _ := s2.WithoutDiag().JSON()
	if !bytes.Equal(j2, jc) {
		t.Fatal("memo-hit snapshot differs from cold (excluding diagnostics)")
	}
	if hits := diagTotal(s2, "diag.checkpoint_branch"); hits != 2 {
		t.Fatalf("second cached point: %d branches recorded, want 2", hits)
	}
}

// TestMemoHitIgnoresCallerWrites mutates every snapshot a memoizing runner
// hands out — rewriting, adding and deleting keys — and checks that a
// later memo hit still returns exactly the cold run's metrics, and that
// the stored Result is untouched.
func TestMemoHitIgnoresCallerWrites(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	b := array.Benchmark{}
	r := &run.Runner{Jobs: 1, Checkpoints: run.NewCheckpointCache(0)}
	key := run.APCheckpointKey(b.Name(), 1, cfg)

	var want obs.Snapshot
	var stored obs.Snapshot
	for i := 0; i < 3; i++ {
		m, s, err := apps.MeasureObservedWith(r, b, cfg, 1)
		if err != nil {
			t.Fatalf("measure %d: %v", i, err)
		}
		got := s.WithoutDiag()
		if i == 0 {
			want = got
			res, ok := r.Checkpoints.Get(key)
			if !ok {
				t.Fatal("no memo entry after the cold run")
			}
			stored = maps.Clone(res.Metrics)
			if res.Elapsed != m.RadTime {
				t.Fatalf("memo Elapsed %d, measured %d", res.Elapsed, m.RadTime)
			}
		} else if !maps.Equal(got, want) {
			t.Fatalf("measure %d: memo hit differs from the cold run", i)
		}
		for k := range s {
			s[k] = -1
		}
		for k := range want {
			delete(s, k)
			break
		}
		s["rad.injected"] = 7
	}
	res, _ := r.Checkpoints.Get(key)
	if !maps.Equal(res.Metrics, stored) {
		t.Fatal("stored Result changed after callers wrote to their snapshots")
	}
}
