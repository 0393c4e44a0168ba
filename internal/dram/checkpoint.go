package dram

import (
	"maps"

	"activepages/internal/obs"
)

// Checkpoint is a deep-copy snapshot of the device's full simulated state:
// the open-row table, the statistics, and the latency histogram. Restoring
// it into a device of the same configuration resumes simulation
// byte-identically.
type Checkpoint struct {
	openRow map[uint64]int64
	stats   Stats
	hist    obs.HistCheckpoint
}

// Bytes estimates the checkpoint's host-memory footprint, for cache
// accounting.
func (c Checkpoint) Bytes() uint64 { return uint64(len(c.openRow)) * 16 }

// Checkpoint captures the device state.
func (d *Device) Checkpoint() Checkpoint {
	return Checkpoint{openRow: maps.Clone(d.openRow), stats: d.Stats, hist: d.hist.Checkpoint()}
}

// Restore overwrites the device state with a checkpoint taken from a
// device of the same configuration. The checkpoint's table is copied, so
// one checkpoint can seed any number of branches.
func (d *Device) Restore(c Checkpoint) {
	d.openRow = maps.Clone(c.openRow)
	d.Stats = c.stats
	d.hist.Restore(c.hist)
}
