package main

// The batch sweep workloads. Each repetition runs in a fresh child
// process, so it starts, as a user's apbench invocation does, with an
// empty checkpoint cache and an empty workload.Shared* input memo.

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"activepages/internal/experiments"
	"activepages/internal/run"
)

// sweepJob is what the parent hands a sweep child on stdin.
type sweepJob struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
}

// sweepOut is what a sweep child reports back.
type sweepOut struct {
	ReadyUnixNS int64   `json:"ready_unix_ns"`
	WallS       float64 `json:"wall_s"`
	Output      string  `json:"output"`
	// MeasureMS holds the wall time of every benchmark measurement (one
	// conventional/Active-Page machine pair at one size), the sweep's
	// unit of work.
	MeasureMS []float64          `json:"measure_ms"`
	Sim       map[string]int64   `json:"sim"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Err       string             `json:"err,omitempty"`
}

// sweepChild runs one repetition of a sweep workload. Untraced, it is
// exactly the user's command: Dispatch("all") over the quick axis
// (apbench -experiment all -quick -jobs 1 -json), or Dispatch("fig3")
// over the full axis. Traced, it runs under a CPU profile of this
// process, and sweep_quick replays the "all" loop one timed Dispatch call
// per experiment. Every benchmark's host time comes from the run.Progress
// measurement events, which time apps.MeasureObservedWith's core.
func sweepChild(job sweepJob) sweepOut {
	out := sweepOut{ReadyUnixNS: time.Now().UnixNano()}
	var mu sync.Mutex
	benchWall := map[string]time.Duration{}
	prog := &run.Progress{OnMeasure: func(ev run.MeasureEvent) {
		mu.Lock()
		defer mu.Unlock()
		out.MeasureMS = append(out.MeasureMS, float64(ev.Wall.Nanoseconds())/1e6)
		benchWall[ev.Benchmark] += ev.Wall
	}}
	r := (&run.Runner{Jobs: 1, Checkpoints: run.NewCheckpointCache(0), Progress: prog}).WithMetrics()
	cfg := experiments.DefaultConfig()
	var buf bytes.Buffer
	var prof bytes.Buffer
	layers := zeroLayers()
	if job.Traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			out.Err = err.Error()
			return out
		}
	}
	start := time.Now()
	var err error
	switch {
	case job.Workload == "sweep_fig3_full":
		err = experiments.Dispatch(&buf, r, "fig3", cfg, experiments.DefaultPagePoints(), experiments.Options{})
	case !job.Traced:
		err = experiments.Dispatch(&buf, r, "all", cfg, experiments.QuickPagePoints(), experiments.Options{})
	default:
		// The "all" loop, replayed one experiment at a time on the same
		// runner, so checkpoint sharing across experiments is unchanged.
		for _, e := range experiments.All {
			fmt.Fprintf(&buf, "\n##### %s #####\n", e)
			t := time.Now()
			if err = experiments.Dispatch(&buf, r, e, cfg, experiments.QuickPagePoints(), experiments.Options{}); err != nil {
				break
			}
			layers["experiments."+e+".host_s"] = time.Since(t).Seconds()
		}
	}
	out.WallS = time.Since(start).Seconds()
	if job.Traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Output = buf.String()
	snap := r.Metrics.Snapshot()
	out.Sim = simCounters(snap, "")
	if !job.Traced {
		return out
	}
	if job.Workload == "sweep_fig3_full" {
		layers["experiments.fig3.host_s"] = out.WallS
	}
	for b, d := range benchWall {
		layers["apps."+b+".host_s"] = d.Seconds()
	}
	addSnapshotLayers(layers, snapshot(snap), "")
	layers["run.ckpt_entries"] = float64(r.Checkpoints.Len())
	layers["run.ckpt_bytes"] = float64(r.Checkpoints.TotalBytes())
	samples, perr := parseProfile(prof.Bytes())
	if perr != nil {
		out.Err = perr.Error()
		return out
	}
	addHostLayers(layers, attribute(samples))
	out.Layers = layers
	return out
}
