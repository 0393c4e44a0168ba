// Command perfbench is the repository's benchmark: one command per
// workload that runs the paper's evaluation sweeps or drives a spawned
// fleet, checks every output against its reference, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload sweep_quick --seed 1 --seconds 20 --trace 0
//
// Workloads: sweep_quick, sweep_fig3_full, serve_cold, serve_warm. See
// README.md in this directory for what each measures and why.
//
// The benchmark only times calls into the program's public functions and
// reads what the program already exports (metrics snapshots, metricsz,
// run traces); it adds no instrumentation inside the program.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// hardLimit bounds one whole run, children included: past it every child
// is killed and the run reports failure rather than overrunning.
const hardLimit = 170 * time.Second

// Golden outputs, relative to the checkout root the benchmark runs from.
const (
	goldenQuick = "ci/stdout-all-quick.txt"
	goldenFig3  = "perfbench/golden/fig3-full.txt"
)

// minReps is the fewest repetitions a sweep or cold-serve run measures,
// whatever --seconds says, so every median has at least three values and
// every reported percentile has ten samples beyond it.
const minReps = 3

var workloads = []string{"sweep_quick", "sweep_fig3_full", "serve_cold", "serve_warm"}

// endToEnd names the end-to-end metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"sim_instr_per_s", "1/s"},
	{"runs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		child    = flag.String("child", "", "internal: run one repetition (sweep or serve), job JSON on stdin")
	)
	flag.Parse()
	if *child != "" {
		os.Exit(childMain(*child))
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), hardLimit)
	defer cancel()
	b := &bench{ctx: ctx, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(b.report(res))
}

// childMain runs one repetition in this process and writes its report as
// one JSON line.
func childMain(mode string) int {
	dec := json.NewDecoder(os.Stdin)
	var out any
	switch mode {
	case "sweep":
		var job sweepJob
		if err := dec.Decode(&job); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		out = sweepChild(job)
	case "serve":
		var job serveJob
		if err := dec.Decode(&job); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			return 1
		}
		out = serveChild(job)
	default:
		fmt.Fprintln(os.Stderr, "perfbench: unknown child mode", mode)
		return 2
	}
	j, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	fmt.Printf("%s\n", j)
	return 0
}

// bench is one benchmark run of one workload.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool

	lines []string // human-readable report lines, printed before the result
	ok    bool     // every output check passed
}

func (b *bench) note(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// childRun is one finished child process.
type childRun struct {
	setupS float64 // spawn until the child reported ready
	rssMB  float64 // the child's peak resident set
}

// spawn runs this binary as a child on job and decodes its report into
// out. Set-up time runs from just before the spawn to the instant the
// child reported itself ready to measure.
func (b *bench) spawn(mode string, job, out any) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return childRun{}, err
	}
	cmd := exec.CommandContext(b.ctx, self, "--child", mode)
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%s child: %w", mode, err)
	}
	line := bytes.TrimSpace(stdout.Bytes())
	if i := bytes.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	var ready struct {
		ReadyUnixNS int64 `json:"ready_unix_ns"`
	}
	if err := json.Unmarshal(line, &ready); err != nil {
		return childRun{}, fmt.Errorf("%s child report: %w", mode, err)
	}
	if err := json.Unmarshal(line, out); err != nil {
		return childRun{}, fmt.Errorf("%s child report: %w", mode, err)
	}
	cr := childRun{setupS: float64(ready.ReadyUnixNS-start.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return cr, nil
}

// measured is what every workload gathers for the end-to-end metrics.
type measured struct {
	walls, instrRates, runRates []float64
	latencyMS                   []float64 // +Inf for every failed operation
	rss, setups                 []float64
	attempted, failed           int
	p99                         bool // report the 99th percentile too
}

func (b *bench) run() (result, error) {
	b.ok = true
	b.note("# host %s", hostFingerprint())
	var m measured
	var layers map[string]float64
	var err error
	switch b.workload {
	case "sweep_quick", "sweep_fig3_full":
		m, layers, err = b.runSweep()
	default:
		m, layers, err = b.runServe()
	}
	if err != nil {
		return result{}, err
	}
	res := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if b.traced {
		for _, l := range perLayer {
			v, ok := layers[l.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				b.ok = false
				b.note("# per-layer metric %s missing", l.name)
				v = 0
			}
			res.Metrics[l.name] = metric{v, l.unit}
		}
	} else {
		vals := map[string]float64{
			"wall_s":          median(m.walls),
			"sim_instr_per_s": median(m.instrRates),
			"runs_per_s":      median(m.runRates),
			"peak_rss_mb":     median(m.rss),
			"setup_s":         median(m.setups),
		}
		for name, q := range map[string]float64{"latency_p50_ms": 0.5, "latency_p90_ms": 0.9} {
			v, ok := percentile(m.latencyMS, q)
			if !ok {
				b.ok = false
				b.note("# %s: %d samples, fewer than %d beyond it", name, len(m.latencyMS), minBeyond)
			}
			if math.IsInf(v, 1) {
				// Failed operations reached the percentile: it missed every
				// limit, which JSON can only carry as the largest number.
				b.ok = false
				v = math.MaxFloat64
			}
			vals[name] = v
		}
		for _, e := range endToEnd {
			res.Metrics[e.name] = metric{vals[e.name], e.unit}
		}
		if v, ok := percentile(m.latencyMS, 0.99); ok && m.p99 {
			b.note("metric latency_p99_ms %.6g ms (%d samples)", v, len(m.latencyMS))
		}
		b.note("metric error_rate %.6g (%d failed of %d)", float64(m.failed)/float64(max(m.attempted, 1)), m.failed, m.attempted)
	}
	res.Correct = b.ok && m.failed == 0 && m.attempted > 0
	return res, nil
}

// report renders the human-readable lines followed by the result line.
func (b *bench) report(res result) string {
	var sb strings.Builder
	for _, l := range b.lines {
		sb.WriteString(l + "\n")
	}
	if b.traced {
		for _, l := range perLayer {
			fmt.Fprintf(&sb, "layer %s %.6g %s\n", l.name, res.Metrics[l.name].Value, l.unit)
		}
	} else {
		for _, e := range endToEnd {
			fmt.Fprintf(&sb, "metric %s %.6g %s\n", e.name, res.Metrics[e.name].Value, e.unit)
		}
	}
	j, _ := json.Marshal(res) // plain numbers and strings always marshal
	sb.Write(j)
	return sb.String()
}

// runSweep measures a sweep workload: fresh-process repetitions until the
// run's seconds are spent. A traced run alternates untraced and traced
// repetitions and reports the traced ones' layers.
func (b *bench) runSweep() (measured, map[string]float64, error) {
	golden := goldenQuick
	if b.workload == "sweep_fig3_full" {
		golden = goldenFig3
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		return measured{}, nil, fmt.Errorf("golden output: %w", err)
	}
	var m measured
	var sim map[string]int64
	var tracedWalls, untracedWalls []float64
	var layerRuns []map[string]float64
	start := time.Now()
	need := minReps
	if b.traced {
		need = 2 // one untraced and one traced repetition
	}
	for rep := 0; rep < need || time.Since(start) < b.seconds; rep++ {
		traced := b.traced && rep%2 == 1
		var out sweepOut
		cr, err := b.spawn("sweep", sweepJob{Workload: b.workload, Traced: traced}, &out)
		if err != nil {
			return m, nil, err
		}
		m.attempted++
		switch {
		case out.Err != "":
			m.failed++
			b.note("# repetition %d failed: %s", rep, out.Err)
			continue
		case out.Output != string(want):
			m.failed++
			b.note("# repetition %d: output differs from %s", rep, golden)
			continue
		case sim != nil && !equalCounts(sim, out.Sim):
			m.failed++
			b.note("# repetition %d: sim counters differ: %v vs %v", rep, out.Sim, sim)
			continue
		}
		sim = out.Sim
		if traced {
			tracedWalls = append(tracedWalls, out.WallS)
			layerRuns = append(layerRuns, out.Layers)
			continue
		}
		untracedWalls = append(untracedWalls, out.WallS)
		m.walls = append(m.walls, out.WallS)
		m.instrRates = append(m.instrRates, float64(out.Sim["sim.instructions"])/out.WallS)
		m.runRates = append(m.runRates, float64(len(out.MeasureMS))/out.WallS)
		m.latencyMS = append(m.latencyMS, out.MeasureMS...)
		m.rss = append(m.rss, cr.rssMB)
		m.setups = append(m.setups, cr.setupS)
	}
	b.note("# %s: %d repetitions (%d failed), %d measurements; walls %.4g s", b.workload, m.attempted, m.failed, len(m.latencyMS), m.walls)
	if !b.traced {
		return m, nil, nil
	}
	layers := medianLayers(layerRuns)
	if len(untracedWalls) > 0 && len(tracedWalls) > 0 {
		layers["trace_overhead_ratio"] = median(tracedWalls) / median(untracedWalls)
	}
	return m, layers, nil
}

// runServe measures a serve workload. References are computed first and
// outside every timed region.
func (b *bench) runServe() (measured, map[string]float64, error) {
	specs := population()
	t := time.Now()
	refs, err := references(specs)
	if err != nil {
		return measured{}, nil, err
	}
	// The references' machines and checkpoints are garbage now; hand the
	// memory back before the children need theirs.
	debug.FreeOSMemory()
	b.note("# %d specs; batch references in %.3fs; poll interval %s; %d clients",
		len(specs), time.Since(t).Seconds(), pollInterval, runtime.NumCPU())
	job := serveJob{Workload: b.workload, Seed: b.seed, Seconds: b.seconds.Seconds(), Specs: specs, Refs: refs}

	var m measured
	var layerRuns []map[string]float64
	var untracedWalls, tracedWalls []float64
	var polls, pollRuns int
	var sim map[string]int64
	spans := newSpanAgg(1)
	add := func(ps []passStats, cr childRun, into bool) {
		for _, p := range ps {
			m.attempted += p.Attempted
			m.failed += p.Failed
			if !into {
				continue
			}
			done := float64(p.Attempted - p.Failed)
			m.walls = append(m.walls, p.WallS)
			m.runRates = append(m.runRates, done/p.WallS)
			for _, us := range p.LatencyUS {
				m.latencyMS = append(m.latencyMS, us/1e3)
			}
			for i := 0; i < p.Failed; i++ {
				m.latencyMS = append(m.latencyMS, math.Inf(1))
			}
		}
	}
	check := func(out serveOut) error {
		for _, n := range out.Notes {
			b.note("# %s", n)
		}
		if out.Spans != nil {
			spans.merge(out.Spans)
		}
		if out.Err != "" {
			return errors.New(out.Err)
		}
		if sim != nil && !equalCounts(sim, out.Sim) {
			b.ok = false
			b.note("# sim counters differ between repetitions: %v vs %v", out.Sim, sim)
		}
		sim = out.Sim
		return nil
	}

	if b.workload == "serve_cold" {
		// A fresh fleet in a fresh process for every repetition.
		start := time.Now()
		for rep := 0; rep < minReps || time.Since(start) < b.seconds; rep++ {
			traced := b.traced && rep%2 == 1
			job.Traced, job.Rep = traced, rep
			var out serveOut
			cr, err := b.spawn("serve", job, &out)
			if err != nil {
				return m, nil, err
			}
			if err := check(out); err != nil {
				return m, nil, err
			}
			add(out.Passes, cr, !traced)
			if traced {
				tracedWalls = append(tracedWalls, out.Passes[0].WallS)
				layerRuns = append(layerRuns, out.Layers)
				polls += out.Passes[0].Polls
				pollRuns += out.Passes[0].Attempted
				continue
			}
			untracedWalls = append(untracedWalls, out.Passes[0].WallS)
			// The fleet's own count of the instructions it simulated.
			m.instrRates = append(m.instrRates, float64(out.Sim["sim.instructions"])/out.Passes[0].WallS)
			m.rss = append(m.rss, cr.rssMB)
			m.setups = append(m.setups, cr.setupS)
		}
	} else {
		job.Traced = b.traced
		var out serveOut
		cr, err := b.spawn("serve", job, &out)
		if err != nil {
			return m, nil, err
		}
		if err := check(out); err != nil {
			return m, nil, err
		}
		m.p99 = true
		add(out.Passes, cr, true)
		add(out.TracedPasses, cr, false)
		m.rss = append(m.rss, cr.rssMB)
		m.setups = append(m.setups, cr.setupS)
		// A warm fleet simulates nothing, so its rate is the simulated
		// work it delivers: each pass's run rate times the batch
		// references' instruction count expected per run under the mix.
		// The expectation, not the count a seed's draws happened to hit,
		// keeps the seed out of the figure.
		instr := make([]float64, len(refs))
		for i, r := range refs {
			instr[i] = float64(r.Instr)
		}
		perRun := zipfMean(instr)
		for _, p := range out.Passes {
			untracedWalls = append(untracedWalls, p.WallS)
		}
		for _, r := range m.runRates {
			m.instrRates = append(m.instrRates, r*perRun)
		}
		for _, p := range out.TracedPasses {
			tracedWalls = append(tracedWalls, p.WallS)
			polls += p.Polls
			pollRuns += p.Attempted
		}
		if out.Layers != nil {
			layerRuns = append(layerRuns, out.Layers)
		}
	}
	b.note("# %s: %d runs (%d failed), %d latency samples; pass walls %.4g s", b.workload, m.attempted, m.failed, len(m.latencyMS), m.walls)
	if !b.traced {
		return m, nil, nil
	}
	layers := medianLayers(layerRuns)
	var notes []string
	spans.fill(layers, max(len(layerRuns), 1), &notes)
	for _, n := range notes {
		b.note("# %s", n)
	}
	if pollRuns > 0 {
		layers["client.polls_per_run"] = float64(polls) / float64(pollRuns)
	}
	if len(untracedWalls) > 0 && len(tracedWalls) > 0 {
		layers["trace_overhead_ratio"] = median(tracedWalls) / median(untracedWalls)
	}
	return m, layers, nil
}

// medianLayers takes each per-layer metric's median over the traced
// repetitions; a metric no repetition reported reads 0.
func medianLayers(runs []map[string]float64) map[string]float64 {
	out := zeroLayers()
	for _, l := range perLayer {
		var vs []float64
		for _, r := range runs {
			if v, ok := r[l.name]; ok {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			out[l.name] = median(vs)
		}
	}
	return out
}

func equalCounts(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// calibrationIters sizes the calibration loop: a fixed xorshift chain,
// about a quarter second on a current core, whose time normalises
// results between hosts.
const calibrationIters = 200_000_000

var calibrationSink uint64

func calibrate() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibrationIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return time.Since(start)
}

// hostFingerprint describes the machine a result was measured on.
func hostFingerprint() string {
	fp := map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"calibration_ms": float64(calibrate().Nanoseconds()) / 1e6,
		"calibration":    fmt.Sprintf("%d xorshift64 steps", calibrationIters),
	}
	j, _ := json.Marshal(fp) // strings and numbers always marshal
	return string(j)
}

// cpuModel reads the processor model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
