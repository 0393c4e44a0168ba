package radram_test

import (
	"testing"

	"activepages/internal/apps/array"
	"activepages/internal/radram"
)

// BenchmarkMachineCheckpointRestore measures one sweep branch: capture the
// state of an Active-Page machine after a quick-mode array run (32 pages)
// and restore it into a freshly built machine of the same configuration.
func BenchmarkMachineCheckpointRestore(b *testing.B) {
	cfg := radram.DefaultConfig().WithPageBytes(64 * 1024)
	m := radram.MustNew(cfg)
	if err := (array.Benchmark{}).Run(m, 32); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		branch := radram.MustNew(cfg)
		if err := branch.Restore(m.Checkpoint()); err != nil {
			b.Fatal(err)
		}
	}
}
