package run_test

import (
	"bytes"
	"math/rand"
	"testing"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/apps/layout"
	"activepages/internal/apps/median"
	"activepages/internal/memsys"
	"activepages/internal/obs"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// machineJSON captures every observable a machine registers — processor
// ledger, full memory hierarchy including fold diagnostics, Active-Page
// system — as deterministic JSON for snapshot-exact comparison.
func machineJSON(t *testing.T, m *radram.Machine) []byte {
	t.Helper()
	r := obs.New()
	m.Observe(r)
	j, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return j
}

// dataWindow is the span of simulated memory storeBytes reads: the
// benchmark pages and everything the suffix below writes.
const dataWindow = 4 * 64 * 1024

// storeBytes reads the machine's data pages.
func storeBytes(m *radram.Machine) []byte {
	p := make([]byte, dataWindow)
	m.Store.Read(layout.DataBase, p)
	return p
}

// TestCheckpointRoundTrip is the checkpoint property test: after any run,
// a checkpoint restored into a fresh machine of the same configuration
// must reproduce the source's observable state — metrics and memory
// contents — exactly; an identical suffix simulated on both must keep them
// identical (nothing hidden was lost); and once source and branch have
// both moved on, writing into the store frames and cache arrays they share
// with the checkpoint, a second branch must still start from exactly the
// first branch's pre-suffix state and end the same suffix in its state
// (nothing is aliased).
func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(98))
	benches := []apps.Benchmark{array.Benchmark{}, median.Benchmark{}}
	for round := 0; round < 6; round++ {
		b := benches[rng.Intn(len(benches))]
		pages := []float64{0.5, 1, 2, 3}[rng.Intn(4)]
		cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
		build := func() *radram.Machine { return radram.MustNew(cfg) }
		if rng.Intn(2) == 0 {
			build = func() *radram.Machine { return radram.NewConventional(cfg) }
		}

		m := build()
		if err := b.Run(m, pages); err != nil {
			t.Fatalf("round %d: prefix run: %v", round, err)
		}
		ck := m.Checkpoint()
		atCkpt := machineJSON(t, m)
		atData := storeBytes(m)

		m2 := build()
		if err := m2.Restore(ck); err != nil {
			t.Fatalf("round %d: restore: %v", round, err)
		}
		if !bytes.Equal(machineJSON(t, m2), atCkpt) {
			t.Fatalf("round %d: restored state differs from source at checkpoint", round)
		}
		if !bytes.Equal(storeBytes(m2), atData) {
			t.Fatalf("round %d: restored memory differs from source at checkpoint", round)
		}

		// Identical suffix on source and branch: any state the checkpoint
		// missed (cache lines, LRU stamps, DRAM open rows, ledger, memory)
		// makes the timing, statistics or data diverge here. The writes
		// land in the benchmark's pages, frames the checkpoint shares.
		suffix := func(m *radram.Machine) {
			srng := rand.New(rand.NewSource(int64(round)))
			for i := 0; i < 64; i++ {
				p := make([]byte, srng.Intn(256)+1)
				srng.Read(p)
				m.Store.Write(layout.DataBase+uint64(srng.Intn(dataWindow-len(p))), p)
			}
			for i := 0; i < 512; i++ {
				addr := uint64(srng.Intn(1 << 22))
				size := uint64(srng.Intn(64) + 1)
				if srng.Intn(3) == 0 {
					m.CPU.TouchStore(addr, size)
				} else {
					m.CPU.TouchLoad(addr, size)
				}
			}
			m.CPU.Stream(uint64(1)<<21, 8, 4096,
				[]memsys.StreamAcc{{Size: 8, Count: 1, Kind: memsys.Read}}, 3)
		}
		suffix(m)
		suffix(m2)
		afterSuffix, afterData := machineJSON(t, m2), storeBytes(m2)
		if !bytes.Equal(machineJSON(t, m), afterSuffix) || !bytes.Equal(storeBytes(m), afterData) {
			t.Fatalf("round %d: source and branch diverge after identical suffix", round)
		}
		if bytes.Equal(afterData, atData) {
			t.Fatalf("round %d: suffix wrote nothing", round)
		}

		// Isolation: both machines have moved past the checkpoint; a
		// second branch must still see the first branch's pre-suffix
		// state, byte for byte, and reach its post-suffix state.
		m3 := build()
		if err := m3.Restore(ck); err != nil {
			t.Fatalf("round %d: second restore: %v", round, err)
		}
		if !bytes.Equal(machineJSON(t, m3), atCkpt) || !bytes.Equal(storeBytes(m3), atData) {
			t.Fatalf("round %d: checkpoint mutated by later simulation", round)
		}
		suffix(m3)
		if !bytes.Equal(machineJSON(t, m3), afterSuffix) || !bytes.Equal(storeBytes(m3), afterData) {
			t.Fatalf("round %d: second branch diverges from the first after the same suffix", round)
		}
	}
}

// TestCheckpointShapeMismatch pins the guard: a conventional checkpoint
// must refuse to restore into an Active-Page machine and vice versa.
func TestCheckpointShapeMismatch(t *testing.T) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	conv, rad := radram.NewConventional(cfg), radram.MustNew(cfg)
	if err := rad.Restore(conv.Checkpoint()); err == nil {
		t.Fatal("conventional checkpoint restored into Active-Page machine")
	}
	if err := conv.Restore(rad.Checkpoint()); err == nil {
		t.Fatal("Active-Page checkpoint restored into conventional machine")
	}
}

// diagTotal sums the per-machine checkpoint diagnostics with one suffix
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
// checkpoint-caching runner and a cold runner: measurements and
// non-diagnostic snapshots must be identical, the second cached
// measurement must branch from the checkpoint (hit diagnostics), and the
// branched result must still match the cold one.
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
		t.Fatalf("branched measurement differs from cold: %+v != %+v", m2, mc)
	}
	j2, _ := s2.WithoutDiag().JSON()
	if !bytes.Equal(j2, jc) {
		t.Fatal("branched snapshot differs from cold (excluding diagnostics)")
	}
	if hits := diagTotal(s2, "diag.checkpoint_branch"); hits != 2 {
		t.Fatalf("second cached point: %d branches recorded, want 2", hits)
	}
}
