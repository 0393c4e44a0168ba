// Result memo for sweeps. The paper's evaluation is a grid of points that
// differ in one knob: most points share their entire simulation with a
// sibling (fig3 and fig4 run the same machines; table4 and the crossover
// study share every pair; the conventional side of the fig9/ablation
// sweeps never changes at all). The CheckpointCache keys what a completed
// machine run measured by the canonical configuration that produced it; a
// later point with the same key reads that Result instead of simulating.
// No machine state is kept: no sweep continues a machine after its
// benchmark returns, so the measurements are all a later point can use.

package run

import (
	"fmt"

	"activepages/internal/core"
	"activepages/internal/lru"
	"activepages/internal/obs"
	"activepages/internal/proc"
	"activepages/internal/radram"
	"activepages/internal/sim"
)

// DefaultCheckpointBudget bounds the memo's host memory. A Result is a few
// KiB of metrics, so 64 MiB holds every distinct point of the paper suite
// many times over.
const DefaultCheckpointBudget = 64 << 20

// Result is what one completed machine run measured: everything a sweep
// point reads from the machine once its benchmark has returned. A Result
// is immutable once built; readers copy Metrics (WithPrefix does) and
// never write to it.
type Result struct {
	// Elapsed is the machine's simulated end time.
	Elapsed sim.Time
	// CPU is the processor's time and operation ledger.
	CPU proc.Stats
	// ActivePages counts the Active-Page pages with at least one
	// activation; ActivationTime and BusyTime sum those pages' T_A and
	// T_C. All three are zero on a conventional machine.
	ActivePages    uint64
	ActivationTime sim.Duration
	BusyTime       sim.Duration
	// Metrics is the machine's metrics snapshot, unprefixed.
	Metrics obs.Snapshot
}

// Bytes is the Result's cost in the memo: its snapshot's bytes, which
// dominate.
func (r *Result) Bytes() uint64 { return r.Metrics.Bytes() }

// CheckpointCache memoizes machine runs by canonical key. It is safe for
// concurrent use from sweep workers: the first caller of a key simulates
// ("cold") while concurrent callers of the same key block until its
// Result is ready ("hit"), so a parallel sweep does the same total
// simulation work as a serial one and produces identical merged metrics.
// A cold error reaches every caller waiting on the key but is not cached:
// deterministic simulation errors simply recur, while transient ones
// (cancellation) must not poison later runs.
type CheckpointCache = lru.Cache[string, *Result]

// NewCheckpointCache returns a memo bounded to budgetBytes of Results
// (0 selects DefaultCheckpointBudget), evicting least recently used ones.
func NewCheckpointCache(budgetBytes uint64) *CheckpointCache {
	if budgetBytes == 0 {
		budgetBytes = DefaultCheckpointBudget
	}
	return lru.New[string](budgetBytes, (*Result).Bytes)
}

// ConvCheckpointKey is the canonical memo key of a conventional-machine
// run: benchmark, problem size, and exactly the configuration a
// conventional machine observes. Every Active-Page-only knob (backend,
// logic divisor, dispatch/interrupt costs, bind charging) is zeroed out of
// the key, so sweeps over those knobs share one conventional run per
// point — the prefix-key = config-minus-swept-knob rule.
func ConvCheckpointKey(bench string, pages float64, cfg radram.Config) string {
	ap := core.Config{PageBytes: cfg.AP.PageBytes}
	return fmt.Sprintf("conv|%s|%g|cpu%+v|mem%+v|ap%+v", bench, pages, cfg.CPU, cfg.Mem, ap)
}

// APCheckpointKey is the canonical memo key of an Active-Page
// machine run: benchmark, problem size, the full configuration, and the
// backend's concrete type and parameters (a nil backend normalizes to the
// RADram cost model, matching radram.New).
func APCheckpointKey(bench string, pages float64, cfg radram.Config) string {
	b := cfg.AP.Backend
	if b == nil {
		b = radram.CostModel{}
	}
	ap := cfg.AP
	ap.Backend = nil
	return fmt.Sprintf("ap|%T%+v|%s|%g|cpu%+v|mem%+v|ap%+v", b, b, bench, pages, cfg.CPU, cfg.Mem, ap)
}
