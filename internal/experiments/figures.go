package experiments

import (
	"fmt"

	"activepages/internal/apps"
	"activepages/internal/radram"
	"activepages/internal/run"
	"activepages/internal/sim"
	"activepages/internal/tabler"
)

// Figure3For renders the speedup sweep for the named Active-Page
// backend.
func Figure3For(sweeps []*Sweep, label string) *tabler.Figure {
	f := tabler.NewFigure(
		fmt.Sprintf("Figure 3: %s speedup as problem size varies", label),
		"pages", fmt.Sprintf("speedup (conventional/%s)", label))
	if len(sweeps) > 0 {
		f.X = sweeps[0].Pages
	}
	for _, s := range sweeps {
		f.Add(s.Benchmark, s.Speedups())
	}
	return f
}

// Figure4For renders the processor-stall sweep for the named backend.
func Figure4For(sweeps []*Sweep, label string) *tabler.Figure {
	f := tabler.NewFigure(
		fmt.Sprintf("Figure 4: percent cycles processor stalled on %s", label),
		"pages", "% cycles stalled")
	if len(sweeps) > 0 {
		f.X = sweeps[0].Pages
	}
	for _, s := range sweeps {
		f.Add(s.Benchmark, s.NonOverlaps())
	}
	return f
}

// DefaultL1Sizes is Figure 5's x axis (Table 1 variation: 32K-256K, with
// two smaller points to expose the left-edge sensitivity the paper notes
// "when it fell below 64 kilobytes").
func DefaultL1Sizes() []uint64 {
	return []uint64{8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024}
}

// DefaultL2Sizes is the Section 7.3 L2 sweep (256K-4M).
func DefaultL2Sizes() []uint64 {
	return []uint64{256 * 1024, 512 * 1024, 1024 * 1024, 2 * 1024 * 1024, 4 * 1024 * 1024}
}

// CacheSweep measures execution time versus a cache size for both machine
// types at a fixed problem size. level is "L1D" or "L2".
func CacheSweep(r *run.Runner, benchNames []string, cfg radram.Config, level string,
	sizes []uint64, pages float64) (conv, rad *tabler.Figure, err error) {

	x := make([]float64, len(sizes))
	for i, s := range sizes {
		x[i] = float64(s) / 1024
	}
	conv = tabler.NewFigure(
		fmt.Sprintf("Figure 5 (left): conventional execution time vs %s size", level),
		level+" KB", "time (ms)")
	rad = tabler.NewFigure(
		fmt.Sprintf("Figure 5 (right): RADram execution time vs %s size", level),
		level+" KB", "time (ms)")
	conv.X, rad.X = x, x

	benches := make([]apps.Benchmark, len(benchNames))
	for i, name := range benchNames {
		if benches[i], err = BenchmarkByName(name); err != nil {
			return nil, nil, err
		}
	}
	grid, err := run.Map(r, len(benches)*len(sizes), func(i int) (apps.Measurement, error) {
		c := cfg
		if size := sizes[i%len(sizes)]; level == "L2" {
			c = c.WithL2(size)
		} else {
			c = c.WithL1D(size)
		}
		return measure(r, benches[i/len(sizes)], c, pages)
	})
	if err != nil {
		return nil, nil, err
	}
	for bi, name := range benchNames {
		convY := make([]float64, len(sizes))
		radY := make([]float64, len(sizes))
		for i := range sizes {
			m := grid[bi*len(sizes)+i]
			convY[i] = m.ConvTime.Milliseconds()
			radY[i] = m.RadTime.Milliseconds()
		}
		conv.Add(name, convY)
		rad.Add(name, radY)
	}
	return conv, rad, nil
}

// DefaultMissLatencies is Figure 8's x axis (0-600 ns).
func DefaultMissLatencies() []sim.Duration {
	out := []sim.Duration{0}
	for _, ns := range []uint64{50, 100, 200, 300, 400, 500, 600} {
		out = append(out, sim.Duration(ns)*sim.Nanosecond)
	}
	return out
}

// speedupGrid runs every benchmark across an axis of derived
// configurations and adds one speedup series per benchmark to f, in
// legend order whatever the worker count.
func speedupGrid(r *run.Runner, f *tabler.Figure, cfg radram.Config, n int,
	derive func(radram.Config, int) radram.Config, pages float64) error {

	bs := Benchmarks()
	grid, err := run.Map(r, len(bs)*n, func(i int) (apps.Measurement, error) {
		return measure(r, bs[i/n], derive(cfg, i%n), pages)
	})
	if err != nil {
		return err
	}
	for bi, b := range bs {
		y := make([]float64, n)
		for i := range y {
			y[i] = grid[bi*n+i].Speedup()
		}
		f.Add(b.Name(), y)
	}
	return nil
}

// MissLatencySweep measures speedup versus cache-miss latency at a fixed
// problem size (Figure 8).
func MissLatencySweep(r *run.Runner, cfg radram.Config, latencies []sim.Duration, pages float64) (*tabler.Figure, error) {
	f := tabler.NewFigure("Figure 8: RADram speedup as cache-to-memory latency varies",
		"miss ns", "speedup")
	f.X = make([]float64, len(latencies))
	for i, d := range latencies {
		f.X[i] = d.Nanoseconds()
	}
	err := speedupGrid(r, f, cfg, len(latencies), func(c radram.Config, i int) radram.Config {
		return c.WithMissLatency(latencies[i])
	}, pages)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// DefaultLogicDivisors is Figure 9's x axis: CPU-clock/logic-clock ratios
// (Table 1 variation 10-500 MHz logic at a 1 GHz core; reference 10).
func DefaultLogicDivisors() []uint64 {
	return []uint64{2, 4, 10, 20, 50, 100}
}

// LogicSpeedSweep measures speedup versus the logic-clock divisor at a
// fixed problem size (Figure 9; higher divisor = slower logic).
func LogicSpeedSweep(r *run.Runner, cfg radram.Config, divisors []uint64, pages float64) (*tabler.Figure, error) {
	f := tabler.NewFigure("Figure 9: RADram speedup as logic speed varies",
		"logic divisor", "speedup")
	f.X = make([]float64, len(divisors))
	for i, d := range divisors {
		f.X[i] = float64(d)
	}
	err := speedupGrid(r, f, cfg, len(divisors), func(c radram.Config, i int) radram.Config {
		return c.WithLogicDivisor(divisors[i])
	}, pages)
	if err != nil {
		return nil, err
	}
	return f, nil
}
