// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7): the Figure 3 speedup sweep, Figure 4 non-overlap
// sweep, Figure 5 cache-size study, Table 3 synthesis report, Table 4
// model parameters and correlation, and the Figure 8/9 technology
// sensitivity studies — plus the ablations DESIGN.md lists.
//
// Sweeps default to 64 KB superpages ("scaled mode"): problem sizes are
// expressed in pages, and both the conventional and Active-Page work per
// page shrink together, preserving every speedup-versus-pages shape while
// keeping host memory bounded. Pass the 512 KB reference page size for
// full-scale points.
//
// Every sweep is a grid of independent simulation points executed through
// the internal/run worker pool: each function takes a *run.Runner (nil
// means serial, no metrics) and merges results back in axis order, so
// output is byte-identical whatever the worker count.
package experiments

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/apps/array"
	"activepages/internal/apps/database"
	"activepages/internal/apps/lcs"
	"activepages/internal/apps/matrix"
	"activepages/internal/apps/median"
	"activepages/internal/apps/mpeg"
	"activepages/internal/radram"
	"activepages/internal/run"
)

// ScaledPageBytes is the sweep default superpage size.
const ScaledPageBytes = 64 * 1024

// Benchmarks returns the application kernels in the paper's Figure 3
// legend order.
func Benchmarks() []apps.Benchmark {
	return []apps.Benchmark{
		array.Benchmark{},
		database.Benchmark{},
		median.Benchmark{},
		lcs.Benchmark{},
		matrix.Benchmark{Variant: matrix.Simplex},
		matrix.Benchmark{Variant: matrix.Boeing},
		mpeg.Benchmark{},
	}
}

// BenchmarkNames lists every name BenchmarkByName accepts: the Figure 3
// kernels in legend order, then the derived median-total measurement.
func BenchmarkNames() []string {
	names := make([]string, 0, len(Benchmarks())+1)
	for _, b := range Benchmarks() {
		names = append(names, b.Name())
	}
	return append(names, "median-total")
}

// BenchmarkByName resolves a kernel name.
func BenchmarkByName(name string) (apps.Benchmark, error) {
	for _, b := range Benchmarks() {
		if b.Name() == name {
			return b, nil
		}
	}
	if name == "median-total" {
		return median.Total{}, nil
	}
	return nil, fmt.Errorf("experiments: unknown benchmark %q", name)
}

// DefaultConfig is the sweep machine configuration: Table 1 parameters
// with scaled pages.
func DefaultConfig() radram.Config {
	return radram.DefaultConfig().WithPageBytes(ScaledPageBytes)
}

// DefaultPagePoints is the Figure 3/4 problem-size axis, in pages.
func DefaultPagePoints() []float64 {
	return []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256}
}

// QuickPagePoints is a short axis for tests and smoke runs.
func QuickPagePoints() []float64 {
	return []float64{0.5, 2, 8, 32}
}

// Sweep holds one benchmark's measurements over the page axis.
type Sweep struct {
	Benchmark string
	Pages     []float64
	Points    []apps.Measurement
}

// Speedups returns the speedup series (Figure 3's y values).
func (s *Sweep) Speedups() []float64 {
	out := make([]float64, len(s.Points))
	for i, m := range s.Points {
		out[i] = m.Speedup()
	}
	return out
}

// NonOverlaps returns the stall-percentage series (Figure 4's y values).
func (s *Sweep) NonOverlaps() []float64 {
	out := make([]float64, len(s.Points))
	for i, m := range s.Points {
		out[i] = 100 * m.NonOverlap
	}
	return out
}

// measure runs one point through apps, routing the pair's metrics
// snapshot into the runner's collector — grouped by benchmark name, so a
// bottleneck report can attribute per benchmark — when one is attached.
// It is the single simulation entry point for every sweep in this package.
func measure(r *run.Runner, b apps.Benchmark, cfg radram.Config, pages float64) (apps.Measurement, error) {
	if r == nil || r.Metrics == nil {
		return apps.MeasureWith(r, b, cfg, pages)
	}
	m, snap, err := apps.MeasureObservedWith(r, b, cfg, pages)
	if err != nil {
		return m, err
	}
	r.CollectGroup(b.Name(), snap)
	return m, nil
}

// serially returns a single-worker runner sharing r's metrics sink,
// result memo, cancellation context, and progress tracker, for loops
// nested inside an already-parallel Map.
func serially(r *run.Runner) *run.Runner {
	if r == nil {
		return nil
	}
	return &run.Runner{Jobs: 1, Metrics: r.Metrics,
		Context: r.Context, Checkpoints: r.Checkpoints, Progress: r.Progress}
}

// RunSweep measures one benchmark across the page axis.
func RunSweep(r *run.Runner, b apps.Benchmark, cfg radram.Config, pages []float64) (*Sweep, error) {
	points, err := run.Map(r, len(pages), func(i int) (apps.Measurement, error) {
		return measure(r, b, cfg, pages[i])
	})
	if err != nil {
		return nil, err
	}
	return &Sweep{Benchmark: b.Name(), Pages: pages, Points: points}, nil
}

// RunAllSweeps measures every benchmark the configured backend supports
// (the full Figure 3/4 dataset on RADram; the ported subset elsewhere).
// The whole benchmarks-by-pages grid is one flat slice of independent
// points, so the worker pool load-balances across it.
func RunAllSweeps(r *run.Runner, cfg radram.Config, pages []float64) ([]*Sweep, error) {
	bs := backendBenchmarks(cfg.BackendName())
	grid, err := run.Map(r, len(bs)*len(pages), func(i int) (apps.Measurement, error) {
		return measure(r, bs[i/len(pages)], cfg, pages[i%len(pages)])
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Sweep, len(bs))
	for bi, b := range bs {
		out[bi] = &Sweep{Benchmark: b.Name(), Pages: pages,
			Points: grid[bi*len(pages) : (bi+1)*len(pages)]}
	}
	return out, nil
}

// Region classifies one point of a sweep into the paper's Figure 1
// regions.
type Region string

// The three regions of Figure 1.
const (
	SubPage   Region = "sub-page"
	Scalable  Region = "scalable"
	Saturated Region = "saturated"
)

// Regions classifies each point of the sweep: sub-page below one page,
// saturated once non-overlap has collapsed (the processor is the
// bottleneck), scalable in between.
func (s *Sweep) Regions() []Region {
	out := make([]Region, len(s.Points))
	for i, m := range s.Points {
		switch {
		case m.Pages < 1:
			out[i] = SubPage
		case m.NonOverlap < 0.05:
			out[i] = Saturated
		default:
			out[i] = Scalable
		}
	}
	return out
}
